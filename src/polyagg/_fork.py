"""Independent work in forked worker processes.

``Forked(fn, *args)`` starts ``fn(*args)`` in a child made by ``os.fork`` and
``result()`` reads its pickled value and warnings back through a pipe.
Without ``os.fork``, with one available CPU, or when the child fails in any
way, ``result()`` runs ``fn(*args)`` in this process instead, so the caller
gets the same value, warnings and exception either way.
"""

import os
import pickle
import signal
import warnings


def available_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def as_records(caught):
    """The warnings ``warnings.catch_warnings(record=True)`` caught, as
    (category, text, filename, lineno): pickle carries these, while a
    warning's arguments or ``source`` may be anything."""
    return [(w.category, str(w.message), w.filename, w.lineno) for w in caught]


def replay(records):
    """Emit again the warnings of ``as_records``."""
    for category, text, filename, lineno in records:
        warnings.warn_explicit(text, category, filename, lineno)


class Forked:
    """``fn(*args)`` running in a forked child.

    Use it as a context manager: leaving the block kills and reaps a child
    whose result was not collected, on an exception as well.
    """

    def __init__(self, fn, *args):
        self._call = (fn, args)
        self._pid = self._pipe = None
        if not hasattr(os, "fork") or available_cpus() < 2:
            return
        rfd, wfd = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(rfd)
            os.close(wfd)
            return
        if pid == 0:
            _child(rfd, wfd, fn, args)
        os.close(wfd)
        self._pid, self._pipe = pid, rfd

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self._pipe is not None:
            os.close(self._pipe)
            self._pipe = None
        if self._pid is not None:
            try:
                os.kill(self._pid, signal.SIGKILL)
            finally:
                os.waitpid(self._pid, 0)
                self._pid = None

    def result(self):
        """The value of ``fn(*args)``, after its warnings; the child is reaped."""
        fn, args = self._call
        if self._pid is None:
            return fn(*args)
        # read to the end first: a child blocks on a full pipe until then
        with open(self._pipe, "rb") as pipe:
            self._pipe = None
            data = pipe.read()
        try:
            out = pickle.loads(data)  # while the child exits
        except Exception:
            out = None  # cut short: the child failed before it wrote all
        finally:
            os.waitpid(self._pid, 0)
            self._pid = None
        if out is None:
            return fn(*args)  # here the call raises the child's error
        value, caught = out
        replay(caught)
        return value


def _child(rfd, wfd, fn, args):
    """Run ``fn(*args)``, write the pickle of its value and warnings to
    ``wfd`` and exit.

    The child leaves only through ``os._exit``: it runs no exit handler,
    flushes none of the parent's buffered output and prints nothing.  It
    writes only once the whole pickle is made, so a failed child leaves the
    pipe empty or its pickle cut short.
    """
    status = 1
    try:
        os.close(rfd)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            value = fn(*args)
        data = pickle.dumps((value, as_records(caught)), protocol=pickle.HIGHEST_PROTOCOL)
        with open(wfd, "wb") as pipe:
            pipe.write(data)
        status = 0
    finally:
        os._exit(status)
