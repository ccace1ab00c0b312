"""The package's public names."""

import hybridparse


def test_every_public_name_resolves():
    for name in hybridparse.__all__:
        assert getattr(hybridparse, name) is not None, name


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from hybridparse import *", namespace)
    assert set(hybridparse.__all__) <= set(namespace)
