"""Budget defaults and the errors that end a call early, with no imports.

``linalg``, ``graph`` and ``coloring`` take these names from here, and keep
them under their own names too.  The CLI builds its parser and maps errors
to exit codes from this module alone, so a call loads only the submodules
its handler runs.
"""

DEFAULT_BUDGET = 1 << 20
EXPORT_BUDGET = 1 << 16  # output lines of ``graph.export_dot``/``export_edgelist_csv``


class BudgetExceededError(RuntimeError):
    """An exhaustive operation would enumerate more items than allowed."""

    def __init__(self, needed: int, budget: int) -> None:
        super().__init__(f"operation needs {needed} items but the budget is {budget}")
        self.needed = needed
        self.budget = budget


class SearchExhaustedError(RuntimeError):
    """The randomized search used all restarts without a verified matrix."""

    def __init__(self, restarts: int, best_rank_d_count: int, best_spectrum: dict[int, int]):
        super().__init__(
            f"no verified parity matrix after {restarts} restarts; "
            f"best attempt had {best_rank_d_count} kernel words at the forbidden rank"
        )
        self.restarts = restarts
        self.best_rank_d_count = best_rank_d_count
        self.best_spectrum = best_spectrum
