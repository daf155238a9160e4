from hypothesis import settings

from pcdec.harness import _steady_heap

# a failing example prints its @reproduce_failure blob, so any checkout can
# replay it, not only one holding the local example database; the tests'
# own @settings inherit this profile
settings.register_profile("pcdec", print_blob=True)
settings.load_profile("pcdec")

RESULTS: list[tuple[str, bool, str]] = []


def pytest_sessionstart(session):
    # the simulator's allocator thresholds for every test, not only those
    # that build a _FrameSimulator: without them a direct tpd_stack or
    # _chase_batch call pays page faults that hang on which test ran first
    _steady_heap()


def record_criterion(name: str, passed: bool, detail: str = "") -> None:
    RESULTS.append((name, passed, detail))
    print(f"ACCEPTANCE {name}: {'PASS' if passed else 'FAIL'}"
          + (f"  [{detail}]" if detail else ""))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for name, passed, detail in RESULTS:
        line = f"{name}: {'PASS' if passed else 'FAIL'}"
        if detail:
            line += f"  [{detail}]"
        terminalreporter.write_line(line)
