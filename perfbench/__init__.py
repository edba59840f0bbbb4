"""The placement benchmark: see README.md in this directory."""
