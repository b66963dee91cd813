"""Exception hierarchy. Errors that can point at a concrete counterexample
carry it in .witness so callers (and the CLI) can print it."""


class GroupcohError(Exception):
    pass


class WitnessedError(GroupcohError):
    def __init__(self, message, witness=None):
        super().__init__(message if witness is None else f"{message}: witness {witness!r}")
        self.witness = witness


class NoIdentity(GroupcohError):
    pass


class NoInverse(WitnessedError):
    pass


class NotAssociative(WitnessedError):
    pass


class UnknownFamily(GroupcohError):
    pass


class BadIdentityAction(GroupcohError):
    pass


class ActionNotHomomorphic(WitnessedError):
    pass


class ActionBreaksRelations(WitnessedError):
    pass


class SourceNotTorsion(GroupcohError):
    pass


class KernelNotFinite(GroupcohError):
    pass


class DegreeMismatch(GroupcohError):
    pass


class GroupMismatch(GroupcohError):
    pass


class PairingMismatch(GroupcohError):
    pass


class NotACocycle(WitnessedError):
    pass


class NonTorsionValue(WitnessedError):
    pass


class DegreeTooLow(GroupcohError):
    pass


class ExponentMismatch(GroupcohError):
    pass


class ResourceLimit(GroupcohError):
    pass


class SelfCheckFailed(GroupcohError):
    """An exact result failed the re-check that guards it: a defect in the
    program, never a property of the input."""
