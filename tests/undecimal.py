"""An int that fails the test when it is converted to decimal, to show that a value is written from a text."""


class Undecimal(int):
    def __repr__(self):
        raise AssertionError("converted to decimal")

    __str__ = __repr__

    def __format__(self, spec):
        raise AssertionError("converted to decimal")
