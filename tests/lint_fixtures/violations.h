// lint-fixture-path: src/fixture/violations.h
// Fixture for ci/lint.py --self-test: every rule fires at least once.
// The `lint-expect:` markers are consumed by the self-test harness; this
// file is excluded from the real lint run and never compiled.
// lint-expect-file: include-guard
#ifndef WRONG_GUARD_H_
#define WRONG_GUARD_H_

#include <cassert>
#include <mutex>

namespace fixture {

class Bad {
 public:
  void Check(int x) {
    assert(x > 0);  // lint-expect: bare-assert
    static_assert(sizeof(int) == 4, "ok");  // lint-expect: none
  }

  int Draw() {
    return rand();  // lint-expect: rand
  }

  long Now() {
    return time(nullptr);  // lint-expect: wallclock
  }

  long NowChrono();  // defined elsewhere using
  // std::chrono::system_clock::now() is fine in a comment  lint-expect: none

  void TouchLocked();  // lint-expect: locked-requires

  void Record() {
    obs::FlightRecorder::Global().Record({});  // lint-expect: flight-record
  }

 private:
  std::mutex mu_;  // lint-expect: raw-mutex
  int guarded_ = 0;
};

}  // namespace fixture

#endif  // WRONG_GUARD_H_
