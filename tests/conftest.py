from hypothesis import settings

# Fixed example generation and no per-example deadline, so that a test run
# draws the same examples every time and slow shared hosts do not flake.
settings.register_profile("repro", derandomize=True, deadline=None)
settings.load_profile("repro")
