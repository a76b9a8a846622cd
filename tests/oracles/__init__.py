"""Reference implementations the suites compare production code against."""
