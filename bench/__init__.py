"""The repo benchmark (see README.md here and BENCHMARK.json at the root)."""
