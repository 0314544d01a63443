"""The package's public names: what ``from tokenmark import *`` gives."""

import tokenmark


def test_star_import_gives_every_public_name():
    # A name left in __all__ after its definition is gone makes the star
    # import fail.
    namespace = {}
    exec("from tokenmark import *", namespace)
    assert set(tokenmark.__all__) <= namespace.keys()


def test_public_names_are_listed_once():
    assert len(tokenmark.__all__) == len(set(tokenmark.__all__))
