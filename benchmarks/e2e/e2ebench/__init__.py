"""Internals of the end-to-end lifecycle benchmark (see ``../README.md``)."""
