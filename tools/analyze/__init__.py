"""hmm static analysis suite (tools/analyze).

Importable as the `analyze` package with tools/ on sys.path; the CLI
entry point is analyze.py in this directory.
"""
