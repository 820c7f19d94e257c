"""numpy for the kernels of ``linalg``, ``graph``, ``codes`` and ``coloring``,
imported the first time a kernel runs instead of when one of those modules
is imported.

Those modules bind ``np`` from here.  Until a kernel runs, ``np`` is a
placeholder whose first attribute lookup imports numpy and rebinds ``np``,
in every matgraph module that still holds the placeholder (this one
included), to the numpy module itself.  From then on ``np.<name>`` is an
ordinary lookup on numpy, with no hook in between, and a module imported
later binds numpy itself from here.  So a CLI call that runs no kernel
(``bounds``, ``field``, ``graph stats``, ``code gabidulin``, ``code
builtin`` and ``color assign``) never imports numpy.
"""

import sys


class _Numpy:
    """Stands for numpy until its first attribute lookup; see the module."""

    __slots__ = ()

    def __getattr__(self, name: str):
        import numpy

        prefix = __package__ + "."
        for module_name, module in list(sys.modules.items()):
            if module_name.startswith(prefix) and vars(module).get("np") is self:
                module.np = numpy
        return getattr(numpy, name)


np = _Numpy()
