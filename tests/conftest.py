from hypothesis import settings

# Hypothesis loads its "ci" profile on CI (no deadline, no example database,
# derandomized), so every CI run replays the same draws.  "ci-fresh" is that
# profile with fresh draws: run with --hypothesis-profile=ci-fresh and a new
# --hypothesis-seed to reach examples no earlier run tried.
settings.register_profile("ci-fresh", settings.get_profile("ci"),
                          derandomize=False)
