import slabrt


def test_all_names_are_bound_sorted_and_unique():
    # a name deleted from a module but left in __all__ would break
    # `from slabrt import *` while every direct import still works
    names = slabrt.__all__
    assert [n for n in names if not hasattr(slabrt, n)] == []
    assert names == sorted(names)
    assert len(set(names)) == len(names)
