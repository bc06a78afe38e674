import pytest

import tridax
import tridax.perfmodel


@pytest.mark.parametrize("module", [tridax, tridax.perfmodel], ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
