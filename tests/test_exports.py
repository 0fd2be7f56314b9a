"""Every name the package exports exists, so `from rootfield import *`
cannot break on a stale entry left behind by a deletion."""

import rootfield


def test_every_exported_name_resolves():
    missing = [name for name in rootfield.__all__
               if not hasattr(rootfield, name)]
    assert missing == []
