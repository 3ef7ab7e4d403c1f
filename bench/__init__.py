"""Chart-throughput benchmark for abeltrace (run ``python3 bench/run.py``)."""
