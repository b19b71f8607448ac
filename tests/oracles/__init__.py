"""Reference implementations kept as independent test oracles."""
