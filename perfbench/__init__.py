"""The repository benchmark (see ``run.py`` and ``README.md`` here)."""
