// lint-fixture-path: src/core/engine.cc
// Fixture for ci/lint.py --self-test: the RecordFlight helper's file is
// the one place allowed to write the global flight recorder.

namespace fixture {

void RecordFlight() {
  obs::FlightRecorder::Global().Record({});  // lint-expect: none
}

}  // namespace fixture
