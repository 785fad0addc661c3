"""Exception hierarchy shared by all modules."""


class HibiError(Exception):
    """Base class for all errors raised by this package."""


class EmptyInput(HibiError):
    pass


class NotALattice(HibiError):
    """Some pair of elements lacks a unique join or meet."""


class NotDistributive(HibiError):
    """The distributive law fails; carries a witness triple."""

    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"distributive law fails on triple {witness}")


class NotComparable(HibiError):
    pass


class CapExceeded(HibiError):
    pass


class NotGroebner(HibiError):
    """An S-polynomial failed to reduce to zero; carries the witness pair.

    Only pairs whose leading monomials share a variable are reduced, so the
    witness is the first such pair: a pair with coprime leads is settled by
    Buchberger's first criterion and is never named.
    """

    def __init__(self, pair):
        self.pair = pair
        super().__init__(f"S-polynomial of generator pair {pair} does not reduce to zero")


class InconsistentProfile(HibiError):
    """A relation profile that cannot occur in a distributive lattice."""


class ConditionViolated(HibiError):
    """A typed-generator witness fails one of its defining conditions."""


class NotPlanar(HibiError):
    pass


class NotASyzygy(HibiError):
    """A typed generator fails phi = 0; carries its kind and witness."""

    def __init__(self, kind, witness, labels):
        self.kind = kind
        self.witness = witness
        super().__init__(f"{kind} element on witness ({', '.join(labels)}) "
                         "is not a syzygy")


class OracleMismatch(HibiError):
    """Closed-form count disagrees with the linear-algebra oracle."""

    def __init__(self, message, breakdown=None):
        self.breakdown = breakdown
        super().__init__(message)
