"""Exception hierarchy. Errors that can point at a concrete counterexample
carry it in .witness so callers (and the CLI) can print it.

Each class carries in .exit_code the CLI exit code of its failure (see the
table in `groupcoh.cli`): 2 group or module validation, 3 resource limit,
4 cocycle or compatibility failure, 5 non-torsion value, 6 degree too low.
None marks a base class or a defect of the program, which `cli.main`
re-raises as a traceback."""


class GroupcohError(Exception):
    exit_code = None


class WitnessedError(GroupcohError):
    def __init__(self, message, witness=None):
        super().__init__(message if witness is None else f"{message}: witness {witness!r}")
        self.witness = witness


class NoIdentity(GroupcohError):
    exit_code = 2


class NoInverse(WitnessedError):
    exit_code = 2


class NotAssociative(WitnessedError):
    exit_code = 2


class UnknownFamily(GroupcohError):
    exit_code = 2


class BadIdentityAction(GroupcohError):
    exit_code = 2


class ActionNotHomomorphic(WitnessedError):
    exit_code = 2


class ActionBreaksRelations(WitnessedError):
    exit_code = 2


class SourceNotTorsion(GroupcohError):
    exit_code = 4


class KernelNotFinite(GroupcohError):
    exit_code = 4


class DegreeMismatch(GroupcohError):
    exit_code = 4


class GroupMismatch(GroupcohError):
    exit_code = 4


class PairingMismatch(GroupcohError):
    exit_code = 4


class NotACocycle(WitnessedError):
    exit_code = 4


class NonTorsionValue(WitnessedError):
    exit_code = 5


class DegreeTooLow(GroupcohError):
    exit_code = 6


class ExponentMismatch(GroupcohError):
    exit_code = 4


class ResourceLimit(GroupcohError):
    """.stage, .count and .limit are those of `cochains.check_entries`."""

    exit_code = 3

    def __init__(self, message, stage=None, count=None, limit=None):
        super().__init__(message)
        self.stage, self.count, self.limit = stage, count, limit


class SelfCheckFailed(GroupcohError):
    """An exact result failed the re-check that guards it: a defect in the
    program, never a property of the input."""
