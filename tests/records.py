"""`replace` for the package's records, as `copy.replace` does it on Python 3.13."""


def replace(record, /, **changes):
    """A copy of `record` with the given fields changed, checked by its constructor."""
    return record.__replace__(**changes)
