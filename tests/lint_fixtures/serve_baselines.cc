// lint-fixture-path: src/serve/fixture.cc
// Fixture for ci/lint.py --self-test: the serving layer runs engine plans
// and never includes the paper-bench baselines.
#include "core/baselines.h"  // lint-expect: serve-baselines
#include <core/baselines.h>  // lint-expect: serve-baselines
#include "core/engine.h"  // lint-expect: none
// #include "core/baselines.h"  lint-expect: none

namespace fixture {}  // namespace fixture
