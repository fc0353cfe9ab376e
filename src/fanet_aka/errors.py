"""Exception types shared across the protocol roles and the simulator."""


class ProtocolError(Exception):
    """Base class for every protocol-level failure."""


class WidthMismatch(ProtocolError):
    """A bit string did not have the width a codec or primitive requires."""


class LoginFailed(ProtocolError):
    """Local credential check failed.

    Deliberately cause-opaque: the message never says whether the password
    or the biometric was wrong.
    """


class StaleTimestamp(ProtocolError):
    """Message timestamp outside the freshness window."""


class ReplayDetected(ProtocolError):
    """Message MAC already accepted within the current freshness window."""


class MacMismatch(ProtocolError):
    """Authentication code did not verify."""


class AuthFailed(ProtocolError):
    """Final key-confirmation check failed."""


class DuplicateRegistration(ProtocolError):
    """Identity already present in the registrar's records."""


class UnknownUav(ProtocolError):
    """Recovered UAV identity has no registry record."""


class IncompleteTranscript(ProtocolError):
    """Bit accounting requested on a transcript missing protocol messages."""


class UnknownScenario(ProtocolError):
    """Requested attack scenario is not in the catalog."""


class DisallowedAction(ProtocolError):
    """Adversary action not permitted by the threat model (secure channel)."""


class StateError(ProtocolError):
    """CLI state file missing or unusable."""


class ConfigError(ProtocolError):
    """CLI configuration malformed."""
