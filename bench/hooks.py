"""Counting wrappers for the traced run.

The wrappers replace the two-dimensional transforms of ``scipy.fft`` and
``scipy.integrate.solve_ivp`` by functions that count their calls and then
call the original.  They must be installed before ``planarsp`` is imported,
because ``planarsp.constants`` binds ``solve_ivp`` by name at import time.
"""

import functools

FFT_NAMES = ("rfft2", "irfft2", "rfftn", "irfftn", "fft2", "ifft2", "fftn", "ifftn")


class Counters:
    """Call counts of the wrapped library functions."""

    def __init__(self):
        self.fft = 0
        self.ode = 0
        self._originals = {}

    def snapshot(self):
        return {"fft": self.fft, "ode": self.ode}

    def _wrap(self, func, attr):
        @functools.wraps(func)
        def counted(*args, **kwargs):
            setattr(self, attr, getattr(self, attr) + 1)
            return func(*args, **kwargs)
        return counted

    def _targets(self):
        import scipy.fft
        import scipy.integrate

        return [(scipy.fft, name, "fft") for name in FFT_NAMES] + \
            [(scipy.integrate, "solve_ivp", "ode")]

    def install(self):
        for module, name, attr in self._targets():
            original = self._originals.setdefault((module, name), getattr(module, name))
            setattr(module, name, self._wrap(original, attr))
        return self

    def uninstall(self):
        """Restore the library attributes.  Names bound at import time (the
        ``solve_ivp`` of ``planarsp.constants``) stay wrapped."""
        for (module, name), original in self._originals.items():
            setattr(module, name, original)
