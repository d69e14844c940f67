"""The public API: ``pillowdeg.__all__`` names exactly what the package
exports, so a re-export cannot outlive the name it points to."""

import pillowdeg


def test_all_is_sorted_without_duplicates():
    assert pillowdeg.__all__ == sorted(set(pillowdeg.__all__))


def test_every_name_in_all_resolves():
    for name in pillowdeg.__all__:
        getattr(pillowdeg, name)
