"""Exception hierarchy for the Ziziphus reproduction.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigurationError(ReproError):
    """A deployment, zone, or protocol was configured inconsistently."""


class SimulationError(ReproError):
    """The discrete-event simulator was driven incorrectly."""


class CryptoError(ReproError):
    """A signature, digest, or certificate failed validation."""


class InvalidCertificateError(CryptoError):
    """A quorum certificate is malformed or below the required quorum."""


class ProtocolError(ReproError):
    """A protocol message violated the protocol's state machine."""

