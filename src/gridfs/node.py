"""The grid node daemon: one listening socket, every service behind it.

A node accepts TCP connections, performs the HELLO/WELCOME negotiation and
the sealed challenge-response AUTH, then hands the connection to whichever
service the negotiated mode selects: remote file access, parallel transfer
(either direction), task execution, or block cryptography. Every
connection takes that one way in; a HELLO of another protocol version
or a disabled mode gets an ERROR frame and a warning naming the peer, and
an AUTH that fails gets one ERROR frame, the same whether the user is
unknown, the key wrong or the proof bad. A transfer's data stream is an
FTSM session like any other: the transfer service admits it when it
sends XFER_JOIN (see ftsm). A session that sends no request for
`secchan.IDLE_TIMEOUT` seconds is ended, so a silent or vanished client
does not keep its slot of `max_sessions`, and every accepted socket asks
for TCP keepalive.

Configuration is a flat `key = value` file. Unknown keys warn and are
ignored so configs can be shared across versions; a known key with an
unusable value refuses to start, naming the line.
"""

from __future__ import annotations

import logging
import os
import secrets
import signal
import socket
import threading
from dataclasses import dataclass
from pathlib import Path

from . import secchan, wire
from .dfsm import DfsServer, LockTable
from .errors import (
    AuthFailed,
    BindFailed,
    GridfsError,
    IntegrityFailure,
    MalformedConfig,
    ModeRejected,
    Status,
    VersionMismatch,
)
from .cryptengine import CryptWorker
from .ftsm import FtsmService, TransferRegistry
from .perms import AccountStore
from .secchan import A_PROOF, A_USER, Channel, ChannelKeys, credential_proof
from .taskexec import TaskService
from .wire import Frame, FrameType, Mode, SecurityMode, SessionParams

log = logging.getLogger("gridfs.node")

ALL_MODES = frozenset(Mode)


@dataclass
class NodeConfig:
    host: str = "127.0.0.1"
    port: int = 2525
    storage_root: Path = Path("grid-data")
    buffer_cap: int = wire.DEFAULT_MAX_PAYLOAD
    max_sessions: int = 64
    modes: frozenset = ALL_MODES
    drain_timeout: float = 30.0
    task_workers: int = 4
    task_retention: float = 600.0
    log_level: str = "warning"

    def account_dir(self) -> Path:
        return Path(self.storage_root) / "etc"


_INT_KEYS = {"port", "buffer_cap", "max_sessions", "task_workers"}
_FLOAT_KEYS = {"drain_timeout", "task_retention"}
_STR_KEYS = {"host", "log_level"}
_PATH_KEYS = {"storage_root"}


def parse_config(text: str, source: str = "<config>") -> NodeConfig:
    config = NodeConfig()
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise MalformedConfig(f"{source}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if key in _INT_KEYS:
            try:
                number = int(value)
            except ValueError:
                raise MalformedConfig(
                    f"{source}:{lineno}: {key} needs an integer, "
                    f"got {value!r}") from None
            if number < 0:
                raise MalformedConfig(f"{source}:{lineno}: {key} is negative")
            setattr(config, key, number)
        elif key in _FLOAT_KEYS:
            try:
                setattr(config, key, float(value))
            except ValueError:
                raise MalformedConfig(
                    f"{source}:{lineno}: {key} needs a number, "
                    f"got {value!r}") from None
        elif key in _STR_KEYS:
            setattr(config, key, value)
        elif key in _PATH_KEYS:
            setattr(config, key, Path(value))
        elif key == "modes":
            names = [part.strip() for part in value.split(",") if part.strip()]
            try:
                config.modes = frozenset(Mode[name.upper()] for name in names)
            except KeyError as exc:
                raise MalformedConfig(
                    f"{source}:{lineno}: unknown mode {exc.args[0]}"
                ) from None
        else:
            log.warning("%s:%d: ignoring unknown config key %r",
                        source, lineno, key)
    return config


def load_config(path: str | Path) -> NodeConfig:
    path = Path(path)
    try:
        text = path.read_text("utf-8")
    except OSError as exc:
        raise MalformedConfig(f"cannot read {path}: {exc}") from None
    return parse_config(text, str(path))


class NodeServer:
    def __init__(self, config: NodeConfig):
        self.config = config
        self.accounts: AccountStore | None = None
        self.locks = LockTable()
        self.registry = TransferRegistry()
        self.ftsm = FtsmService(self.registry,
                                drain_timeout=config.drain_timeout)
        self.tasks = TaskService(self.ftsm, workers=config.task_workers,
                                 retention=config.task_retention)
        self.crypt = CryptWorker()
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._stopping = threading.Event()
        self._sessions_lock = threading.Lock()
        self._conns: set[socket.socket] = set()
        self.port = config.port

    def start(self) -> None:
        root = Path(self.config.storage_root)
        root.mkdir(parents=True, exist_ok=True)
        self.accounts = AccountStore(self.config.account_dir(), root)
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            listener.bind((self.config.host, self.config.port))
        except OSError as exc:
            listener.close()
            raise BindFailed(
                f"cannot bind {self.config.host}:{self.config.port}: {exc}"
            ) from None
        listener.listen(128)
        self._listener = listener
        self.port = listener.getsockname()[1]
        self._accept_thread = threading.Thread(target=self._accept_loop,
                                               name="accept", daemon=True)
        self._accept_thread.start()
        log.info("listening on %s:%d", self.config.host, self.port)

    def stop(self) -> None:
        self._stopping.set()
        if self._listener is not None:
            host = self.config.host if self.config.host not in (
                "0.0.0.0", "") else "127.0.0.1"
            try:
                # a close alone does not wake a thread blocked in accept()
                socket.create_connection((host, self.port), timeout=1).close()
            except OSError:
                pass
            try:
                self._listener.close()
            except OSError:
                pass
        with self._sessions_lock:
            open_conns = list(self._conns)
        for conn in open_conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5)

    def _accept_loop(self) -> None:
        while True:
            try:
                conn, peer = self._listener.accept()
            except OSError:
                return    # listener closed by stop()
            if self._stopping.is_set():
                conn.close()
                return
            with self._sessions_lock:
                if len(self._conns) >= self.config.max_sessions:
                    self._refuse(conn)
                    continue
                self._conns.add(conn)
            thread = threading.Thread(target=self._session, args=(conn, peer),
                                      daemon=True)
            thread.start()

    @staticmethod
    def _refuse(conn: socket.socket) -> None:
        try:
            conn.sendall(wire.encode_frame(Frame(
                FrameType.ERROR,
                wire.error_payload(Status.INTERNAL, "session limit reached"))))
        except OSError:
            pass
        finally:
            conn.close()

    def _session(self, conn: socket.socket, peer) -> None:
        try:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            # a peer lost without a FIN ends its session too
            conn.setsockopt(socket.SOL_SOCKET, socket.SO_KEEPALIVE, 1)
            conn.settimeout(secchan.HANDSHAKE_TIMEOUT)
            self._handle_session(conn, peer)
        except (GridfsError, OSError, socket.timeout) as exc:
            log.debug("session from %s ended: %s", peer, exc)
        except Exception:
            log.exception("session from %s crashed", peer)
        finally:
            try:
                conn.close()
            except OSError:
                pass
            with self._sessions_lock:
                self._conns.discard(conn)

    def _handle_session(self, conn: socket.socket, peer) -> None:
        provisional = SessionParams(Mode.DFSM, SecurityMode.NONSECURE)
        channel = Channel(conn, provisional, keys=None)
        frame = channel.expect(FrameType.HELLO)
        fields = wire.decode_fields(frame.payload)
        username = fields.get(secchan.T_USER, b"").decode("utf-8",
                                                          errors="replace")
        try:
            requested, client_nonce = wire.parse_hello(frame.payload)
            agreed = wire.negotiate(requested, self.config.buffer_cap,
                                    self.config.modes)
        except (VersionMismatch, ModeRejected) as exc:
            log.warning("refused session from %s: %s", peer, exc)
            channel.send_error(exc)
            return

        account = self.accounts.get(username)
        # unknown users get a random key so timing does not reveal which
        # usernames exist; their AUTH then fails like any wrong password,
        # with the same ERROR frame, byte for byte
        psk = account.psk if account is not None else secrets.token_bytes(32)
        server_nonce = os.urandom(secchan.NONCE_SIZE)
        channel.params = agreed
        channel.send(FrameType.WELCOME,
                     wire.welcome_payload(agreed, server_nonce))
        channel.keys = ChannelKeys.for_role(psk, client_nonce, server_nonce,
                                            is_client=False)
        rejected = AuthFailed("server rejected credentials")
        try:
            auth = channel.expect(FrameType.AUTH)
        except IntegrityFailure:
            # wrong key: either a bad password or an unknown user
            channel.send_error(rejected)
            return
        auth_fields = wire.decode_fields(auth.payload)
        claimed = auth_fields.get(A_USER, b"").decode("utf-8",
                                                      errors="replace")
        proof = auth_fields.get(A_PROOF, b"")
        expected = credential_proof(psk, client_nonce, server_nonce, username)
        if account is None or claimed != username or \
                not secrets.compare_digest(proof, expected):
            channel.send_error(rejected)
            return
        channel.send(FrameType.AUTH_OK, b"")
        conn.settimeout(None)
        self._dispatch(channel, account, agreed.mode)

    def _dispatch(self, channel: Channel, account, mode: Mode) -> None:
        if mode == Mode.DFSM:
            DfsServer(channel, account, self.locks).serve()
        elif mode in (Mode.FTSM_PUSH, Mode.FTSM_PULL):
            self.ftsm.serve(channel, account, mode)
        elif mode == Mode.TASK:
            self.tasks.serve(channel, account)
        elif mode == Mode.CRYPT:
            self.crypt.serve(channel, account)
        else:
            raise ModeRejected(f"mode {mode} not handled")


def run_node(config: NodeConfig) -> int:
    """Run a node until SIGTERM or SIGINT; returns the process exit code."""
    logging.basicConfig(
        level=getattr(logging, config.log_level.upper(), logging.WARNING),
        format="%(asctime)s %(name)s %(levelname)s %(message)s")
    server = NodeServer(config)
    server.start()
    stop = threading.Event()

    def handler(signum, _frame):
        log.info("signal %d, shutting down", signum)
        stop.set()

    signal.signal(signal.SIGTERM, handler)
    signal.signal(signal.SIGINT, handler)
    # handlers first: anyone who has seen this line may signal us
    print(f"gridfs node listening on {server.config.host}:{server.port}",
          flush=True)
    stop.wait()
    server.stop()
    return 0
