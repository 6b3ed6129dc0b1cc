"""Suite-wide setup: the allocator thresholds the command line uses."""

from fedfa.allocator import pin_malloc_thresholds


def pytest_configure(config):
    pin_malloc_thresholds()
