import warnings

from hypothesis import HealthCheck, settings

# When a property fails, hypothesis writes .hypothesis/patches through a
# module that imports libcst, and libcst's own import raises a
# DeprecationWarning from mypy_extensions. Under -W error that warning
# would end the run with INTERNALERROR instead of the falsifying example,
# so the module is imported once here, with deprecation warnings ignored
# for that one import only.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

settings.register_profile(
    "suite",
    max_examples=50,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")
