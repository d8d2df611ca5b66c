"""Test-harness emulation: wire protocol, dump files, server, collector."""
