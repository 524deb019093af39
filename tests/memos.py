"""One way for tests to empty the module and Ext^1 memos, so that the next
call builds every module and Ext^1 order it returns."""

from finring import rings


def forget_memos(ring=None):
    """Start a new request, which drops every derived module and Ext^1
    result, and drop the free modules R^k that ``ring`` keeps as well."""
    rings.new_request()
    if ring is not None:
        ring._cache.pop("free_modules", None)
