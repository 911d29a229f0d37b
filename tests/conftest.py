try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    # the same examples on every run, and few of them: the suite stays
    # deterministic and a property run costs seconds, not minutes
    settings.register_profile(
        "deterministic", derandomize=True, deadline=None, max_examples=20, database=None
    )
    settings.load_profile("deterministic")
