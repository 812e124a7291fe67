try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    # Each property test draws the same examples on every run, so the suite
    # stays deterministic and leaves no example database behind.
    settings.register_profile("wamdf", derandomize=True, deadline=None, max_examples=60,
                              database=None)
    settings.load_profile("wamdf")
