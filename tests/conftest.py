from hypothesis import settings

# Property tests run a fixed, bounded set of examples so that the suite is
# deterministic and quick.
settings.register_profile("tier1", derandomize=True, max_examples=60, deadline=None,
                          database=None)
settings.load_profile("tier1")
