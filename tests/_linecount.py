"""Work under doubling, counted as executed lines instead of timed."""

import sys


def executed_lines(path: str, fn, *args) -> int:
    """Line events in frames of the source files under path during one
    call of fn.

    path is one source file, or a directory ending in a separator for
    every file below it.  Every frame of those files counts, helpers,
    comprehensions and resumed generators included, so no loop of the
    call goes unseen.  Work done inside builtins (a sort, a slice, a dict
    copy) has no line events.
    """
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return local

    def on_call(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(path) else None

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        fn(*args)
    finally:
        sys.settrace(previous)
    return count


def doubling_ratios(counts):
    return [later / earlier for earlier, later in zip(counts, counts[1:])]
