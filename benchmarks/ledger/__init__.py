"""Wall-clock benchmark ledger; see ``README.md`` and ``run.py``."""
