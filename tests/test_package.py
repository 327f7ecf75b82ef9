import io
import types

import quartercast


def test_star_import_binds_only_the_public_api():
    namespace = {}
    exec("import io\nfrom quartercast import *", namespace)
    assert namespace["io"] is io  # not quartercast.io
    exported = set(namespace) - {"__builtins__", "io"}
    assert exported == set(quartercast.__all__)
    assert not any(isinstance(namespace[name], types.ModuleType) for name in exported)
