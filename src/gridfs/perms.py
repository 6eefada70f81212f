"""Per-account permission documents and the pre-execution permission gate.

Accounts come in two types. Administrator accounts pass every check and
their sandbox is the whole storage root. Others accounts carry an XML
permission document of six boolean flags:

    UnmanagedCode, SocketPermission, Execution, FileIOPermission,
    RegistryPermission, SqlClientPermission

and are confined to a private sandbox directory. A flag absent from the
document is False: default deny. Flags gate actions before any effect:
FileIOPermission gates file access (plus sandbox containment), Execution
gates task launch, SocketPermission gates tasks that declare network
access, and the remaining three gate only tasks that explicitly declare
the matching capability.

The store on disk is a directory holding a `credentials` line file
(`username:hex(psk)` per line) and `accounts/<user>.xml` documents. A
credential with no document is served as an Administrator, which is how a
fresh node bootstraps its first admin. A document that exists but fails to
parse disables its account rather than widening it.
"""

from __future__ import annotations

import logging
import re
import threading
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from xml.sax.saxutils import escape

from .errors import MalformedDocument, UnknownAccountType

log = logging.getLogger("gridfs.perms")

FLAG_ORDER = (
    "UnmanagedCode",
    "SocketPermission",
    "Execution",
    "FileIOPermission",
    "RegistryPermission",
    "SqlClientPermission",
)

ADMINISTRATOR = "Administrator"
OTHERS = "Others"

_USERNAME_RE = re.compile(r"^[A-Za-z0-9_][A-Za-z0-9_.-]{0,63}$")


class ActionKind(Enum):
    FILE_IO = "FileIOPermission"
    EXECUTION = "Execution"
    SOCKET = "SocketPermission"
    UNMANAGED = "UnmanagedCode"
    REGISTRY = "RegistryPermission"
    SQL = "SqlClientPermission"


@dataclass(frozen=True)
class GuardedAction:
    kind: ActionKind
    path: Path | None = None       # FILE_IO: absolute, already resolved
    detail: str = ""


@dataclass(frozen=True)
class PermissionDoc:
    account_type: str
    flags: tuple[tuple[str, bool], ...]
    descriptions: tuple[tuple[str, str], ...] = ()

    def flag(self, name: str) -> bool:
        for key, value in self.flags:
            if key == name:
                return value
        return False

    def description(self, name: str) -> str:
        for key, value in self.descriptions:
            if key == name:
                return value
        return ""

    @classmethod
    def administrator(cls) -> "PermissionDoc":
        return cls(ADMINISTRATOR, tuple((name, True) for name in FLAG_ORDER))

    @classmethod
    def others(cls, **flags: bool) -> "PermissionDoc":
        unknown = set(flags) - set(FLAG_ORDER)
        if unknown:
            raise ValueError(f"unknown flags {sorted(unknown)}")
        return cls(OTHERS,
                   tuple((name, flags.get(name, False)) for name in FLAG_ORDER))


@dataclass(frozen=True)
class Account:
    username: str
    psk: bytes
    sandbox_root: Path
    doc: PermissionDoc

    @property
    def is_admin(self) -> bool:
        return self.doc.account_type == ADMINISTRATOR


def parse_permissions(text: str) -> PermissionDoc:
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise MalformedDocument(f"not well-formed: {exc}") from None
    if root.tag != "permissions":
        raise MalformedDocument(f"unexpected root element <{root.tag}>")
    account_type = root.get("AccountType")
    if account_type not in (ADMINISTRATOR, OTHERS):
        raise UnknownAccountType(f"AccountType {account_type!r}")
    flags: dict[str, bool] = {name: False for name in FLAG_ORDER}
    descriptions: list[tuple[str, str]] = []
    for element in root:
        if element.tag not in flags:
            continue   # unknown elements pass through silently
        raw = element.get("value", "False")
        lowered = raw.strip().lower()
        if lowered == "true":
            flags[element.tag] = True
        elif lowered == "false":
            flags[element.tag] = False
        else:
            raise MalformedDocument(
                f"<{element.tag}> value must be True or False, got {raw!r}")
        text_content = (element.text or "").strip()
        if text_content:
            descriptions.append((element.tag, text_content))
    return PermissionDoc(account_type,
                         tuple((name, flags[name]) for name in FLAG_ORDER),
                         tuple(descriptions))


def serialize_permissions(doc: PermissionDoc) -> str:
    lines = ['<?xml version="1.0" encoding="utf-8"?>',
             f'<permissions AccountType="{escape(doc.account_type)}">']
    for name in FLAG_ORDER:
        value = "True" if doc.flag(name) else "False"
        description = doc.description(name)
        if description:
            lines.append(f'  <{name} value="{value}">{escape(description)}</{name}>')
        else:
            lines.append(f'  <{name} value="{value}"/>')
    lines.append("</permissions>")
    return "\n".join(lines) + "\n"


def check(account: Account, action: GuardedAction) -> str | None:
    """Returns None to allow, or a short denial reason.

    Reasons name the governing flag only; they end up in clear ERROR
    frames, so they must never echo a path.
    """
    if account.is_admin:
        return None
    if action.kind == ActionKind.FILE_IO:
        if not account.doc.flag("FileIOPermission"):
            return "FileIOPermission"
        if action.path is None:
            return "FileIOPermission"
        try:
            action.path.relative_to(account.sandbox_root)
        except ValueError:
            return "FileIOPermission: outside sandbox"
        return None
    if not account.doc.flag(action.kind.value):
        return action.kind.value
    return None


# -- on-disk store ----------------------------------------------------------

class AccountStore:
    """Immutable account snapshot with atomic reload.

    Layout under `store_dir`: a `credentials` file plus `accounts/*.xml`.
    Checks read the snapshot without locking; reload swaps it whole.
    """

    def __init__(self, store_dir: Path, storage_root: Path):
        self.store_dir = Path(store_dir)
        self.storage_root = Path(storage_root)
        self._lock = threading.Lock()
        self._accounts: dict[str, Account] = {}
        self.reload()

    def reload(self) -> None:
        accounts = load_accounts(self.store_dir, self.storage_root)
        with self._lock:
            self._accounts = accounts

    def get(self, username: str) -> Account | None:
        with self._lock:
            return self._accounts.get(username)

    # management helpers used by the CLI; they write the store then reload

    def add(self, username: str, psk: bytes, doc: PermissionDoc) -> None:
        if not _USERNAME_RE.match(username):
            raise MalformedDocument(f"bad username {username!r}")
        self.store_dir.mkdir(parents=True, exist_ok=True)
        cred_path = self.store_dir / "credentials"
        lines = []
        if cred_path.exists():
            lines = [line for line in cred_path.read_text().splitlines()
                     if line.split(":", 1)[0].strip() != username]
        lines.append(f"{username}:{psk.hex()}")
        cred_path.write_text("\n".join(lines) + "\n")
        accounts_dir = self.store_dir / "accounts"
        accounts_dir.mkdir(exist_ok=True)
        (accounts_dir / f"{username}.xml").write_text(serialize_permissions(doc))
        self.reload()

    def set_flag(self, username: str, flag: str, value: bool) -> None:
        if flag not in FLAG_ORDER:
            raise MalformedDocument(f"unknown flag {flag!r}")
        account = self.get(username)
        if account is None:
            raise MalformedDocument(f"no such account {username!r}")
        doc = account.doc
        new_doc = PermissionDoc(
            doc.account_type,
            tuple((name, value if name == flag else doc.flag(name))
                  for name in FLAG_ORDER),
            doc.descriptions)
        accounts_dir = self.store_dir / "accounts"
        accounts_dir.mkdir(exist_ok=True)
        (accounts_dir / f"{username}.xml").write_text(
            serialize_permissions(new_doc))
        self.reload()


def load_accounts(store_dir: Path, storage_root: Path) -> dict[str, Account]:
    store_dir = Path(store_dir)
    storage_root = Path(storage_root)
    credentials: dict[str, bytes] = {}
    cred_path = store_dir / "credentials"
    if cred_path.exists():
        for lineno, line in enumerate(cred_path.read_text().splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            username, _, psk_hex = line.partition(":")
            username = username.strip()
            try:
                psk = bytes.fromhex(psk_hex.strip())
            except ValueError:
                log.warning("credentials line %d: bad hex, skipped", lineno)
                continue
            if not _USERNAME_RE.match(username):
                log.warning("credentials line %d: bad username, skipped", lineno)
                continue
            if username in credentials:
                log.warning("credentials line %d: duplicate %r, later wins",
                            lineno, username)
            credentials[username] = psk

    docs: dict[str, PermissionDoc] = {}
    disabled: set[str] = set()
    accounts_dir = store_dir / "accounts"
    if accounts_dir.is_dir():
        for doc_path in sorted(accounts_dir.glob("*.xml")):
            username = doc_path.stem
            try:
                docs[username] = parse_permissions(doc_path.read_text())
            except (MalformedDocument, UnknownAccountType, OSError) as exc:
                # a broken document disables its account; falling back to
                # defaults here would widen access on a corrupt file
                log.warning("account %r disabled: %s", username, exc)
                disabled.add(username)

    accounts: dict[str, Account] = {}
    for username, psk in credentials.items():
        if username in disabled:
            continue
        # credential with no document: bootstrap Administrator
        doc = docs.get(username, PermissionDoc.administrator())
        if doc.account_type == ADMINISTRATOR:
            sandbox = storage_root
        else:
            sandbox = storage_root / "home" / username
        sandbox.mkdir(parents=True, exist_ok=True)
        accounts[username] = Account(username, psk, sandbox.resolve(), doc)
    return accounts
