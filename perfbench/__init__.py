"""End-to-end study benchmark (see ``perfbench/README.md``)."""
