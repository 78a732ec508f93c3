"""The end-to-end benchmark's modules; ``run.py`` one level up is the command."""
