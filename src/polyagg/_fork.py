"""Independent work in forked worker processes.

``Forked(fn, *args)`` starts ``fn(*args)`` in a child made by ``os.fork`` and
``result()`` reads its pickled value back through a pipe.  Only the value
travels: the child runs with every warning an error.  Without ``os.fork``,
or when the child fails in any way, ``result()`` is ``None``; the caller
does the work itself then.
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


class Forked:
    """``fn(*args)`` running in a forked child.

    Use it as a context manager: leaving the block kills and reaps a child
    whose result was not collected, on an exception as well.
    """

    def __init__(self, fn, *args):
        self._pid = self._pipe = None
        if not hasattr(os, "fork"):
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
        """The child's value of ``fn(*args)``, or ``None`` when there is no
        child or it failed; the child is reaped."""
        if self._pid is None:
            return None
        # read to the end first: a child blocks on a full pipe until then
        with open(self._pipe, "rb") as pipe:
            self._pipe = None
            data = pipe.read()
        try:
            return pickle.loads(data)  # while the child exits
        except Exception:
            return None  # cut short: the child failed before it wrote all
        finally:
            os.waitpid(self._pid, 0)
            self._pid = None


def _child(rfd, wfd, fn, args):
    """Run ``fn(*args)`` with every warning an error, write the pickle of
    its value to ``wfd`` and exit.

    The child leaves only through ``os._exit``: it runs no exit handler,
    flushes none of the parent's buffered output and prints nothing.  It
    writes only once the whole pickle is made, so a failed child leaves the
    pipe empty or its pickle cut short.
    """
    status = 1
    try:
        os.close(rfd)
        warnings.simplefilter("error")
        data = pickle.dumps(fn(*args), protocol=pickle.HIGHEST_PROTOCOL)
        with open(wfd, "wb") as pipe:
            pipe.write(data)
        status = 0
    finally:
        os._exit(status)
