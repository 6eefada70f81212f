"""The `gridfs` command line.

One executable fronts both halves of the system: `serve` runs the node
daemon, everything else is a client verb. Client verbs authenticate with
--user/--psk (or the GRIDFS_USER / GRIDFS_PSK environment variables) and
address nodes as host[:port], port 2525 when omitted.

Exit codes: 0 success, 1 operational failure, 2 usage error, 3 permission
or authentication refused.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import time
from pathlib import Path

from . import wire
from .cryptengine import (
    CipherParams,
    DEFAULT_BLOCK_SIZE,
    distribute,
    manifest_path_for,
    reassemble,
)
from .dfsm import FsClient, WHOLE_FILE
from .errors import AuthFailed, GridfsError, PermissionDenied
from .ftsm import TransferClient, TransferReport
from .node import NodeConfig, load_config, run_node
from .perms import FLAG_ORDER, AccountStore, PermissionDoc
from .secchan import connect
from .taskexec import (
    TaskClient,
    TaskStatus,
    pi_across,
    pi_hex_digits,
    process_task,
)
from .wire import Mode, SecurityMode, SessionParams

DEFAULT_PORT = NodeConfig.port

SECURITY_NAMES = {
    "none": SecurityMode.NONSECURE,
    "secure": SecurityMode.SECURE,
    "semi": SecurityMode.SEMISECURE,
}

EX_OK = 0
EX_FAILURE = 1
EX_USAGE = 2
EX_DENIED = 3


class UsageError(Exception):
    pass


# -- argument helpers --------------------------------------------------------

def parse_node_address(text: str) -> tuple[str, int]:
    host, _, port_text = text.partition(":")
    if not host:
        raise UsageError(f"bad node address {text!r}")
    if not port_text:
        return host, DEFAULT_PORT
    try:
        return host, int(port_text)
    except ValueError:
        raise UsageError(f"bad port in node address {text!r}") from None


def split_remote(token: str) -> tuple[tuple[str, int], str] | None:
    """host[:port]:path, or None when the token is a local path."""
    head, sep, rest = token.partition(":")
    if not sep or not head or not rest or "/" in head:
        return None
    port_text, sep2, tail = rest.partition(":")
    if sep2 and port_text.isdigit() and tail:
        return (head, int(port_text)), tail
    return (head, DEFAULT_PORT), rest


def client_identity(args) -> tuple[str, bytes]:
    user = args.user or os.environ.get("GRIDFS_USER")
    if not user:
        raise UsageError("no username: pass --user or set GRIDFS_USER")
    psk_hex = args.psk or os.environ.get("GRIDFS_PSK")
    if not psk_hex:
        raise UsageError("no pre-shared key: pass --psk or set GRIDFS_PSK")
    try:
        psk = bytes.fromhex(psk_hex)
    except ValueError:
        raise UsageError("--psk must be hexadecimal") from None
    return user, psk


def add_client_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--user", help="account name (default: $GRIDFS_USER)")
    parser.add_argument("--psk", metavar="HEX",
                        help="pre-shared key (default: $GRIDFS_PSK)")
    parser.add_argument("--security", choices=sorted(SECURITY_NAMES),
                        default="none")
    parser.add_argument("--buffer", type=int,
                        default=wire.DEFAULT_MAX_PAYLOAD, metavar="BYTES")


def resolve_node_config(args) -> NodeConfig:
    path = args.config or os.environ.get("GRIDFS_CONFIG")
    if path:
        return load_config(Path(path))
    return NodeConfig()


def hex_bytes(text: str, what: str) -> bytes:
    try:
        return bytes.fromhex(text)
    except ValueError:
        raise UsageError(f"{what} must be hexadecimal") from None


def print_report(action: str, report: TransferReport) -> None:
    print(f"{action} {report.bytes_moved} bytes in {report.seconds:.3f} s: "
          f"{report.mbps:.2f} Mbps over {len(report.per_stream)} stream(s)"
          + (" (resumed)" if report.resumed else ""))


# -- serve -------------------------------------------------------------------

def cmd_serve(args) -> int:
    return run_node(resolve_node_config(args))


# -- cp ----------------------------------------------------------------------

def cmd_cp(args) -> int:
    src, dst = split_remote(args.src), split_remote(args.dst)
    if (src is None) == (dst is None):
        raise UsageError("exactly one of SRC and DST must be node:path")
    if (args.offset is None) != (args.length is None):
        raise UsageError("--offset and --length go together")
    region = None
    if args.offset is not None:
        region = (args.offset, args.length)
    user, psk = client_identity(args)
    address = (src or dst)[0]
    with TransferClient(address, user, psk,
                        security=SECURITY_NAMES[args.security],
                        streams=args.streams, buffer_size=args.buffer,
                        chunk_size=args.chunk) as mover:
        if dst is not None:
            report = mover.push(Path(args.src), dst[1], region)
            print_report("pushed", report)
        else:
            report = mover.pull(src[1], Path(args.dst), region)
            print_report("pulled", report)
    return EX_OK


# -- bench -------------------------------------------------------------------

def cmd_bench(args) -> int:
    user, psk = client_identity(args)
    with TransferClient(parse_node_address(args.node), user, psk,
                        security=SECURITY_NAMES[args.security],
                        streams=args.streams,
                        buffer_size=args.buffer) as mover:
        report = mover.bench_mem(args.seconds)
    print_report("moved", report)
    for index, moved in enumerate(report.per_stream):
        print(f"  stream {index}: {moved} bytes")
    return EX_OK


# -- fs ----------------------------------------------------------------------

def _fs_open(args) -> tuple[FsClient, str]:
    remote = split_remote(args.remote)
    if remote is None:
        raise UsageError("REMOTE must be node:path")
    address, path = remote
    user, psk = client_identity(args)
    params = SessionParams(Mode.DFSM, SECURITY_NAMES[args.security],
                           buffer_size=args.buffer)
    return FsClient(connect(address, params, user, psk)), path


def cmd_fs_read(args) -> int:
    fs, path = _fs_open(args)
    with fs:
        length = args.length
        if length is None:
            length = max(0, fs.stat(path).size - args.offset)
        data = fs.read(path, args.offset, length)
    if args.out:
        Path(args.out).write_bytes(data)
        print(f"read {len(data)} bytes into {args.out}")
    else:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    return EX_OK


def cmd_fs_write(args) -> int:
    if (args.data is None) == (args.input is None):
        raise UsageError("pass exactly one of --data or --input")
    payload = (args.data.encode("utf-8") if args.data is not None
               else Path(args.input).read_bytes())
    fs, path = _fs_open(args)
    with fs:
        written = fs.write(path, args.offset, payload)
        fs.flush(path)
    print(f"wrote {written} bytes at offset {args.offset}")
    return EX_OK


def cmd_fs_stat(args) -> int:
    fs, path = _fs_open(args)
    with fs:
        stat = fs.stat(path)
    if not stat.exists:
        print(f"gridfs: no such file: {path}", file=sys.stderr)
        return EX_FAILURE
    print(f"size={stat.size}")
    return EX_OK


def cmd_fs_truncate(args) -> int:
    fs, path = _fs_open(args)
    with fs:
        fs.set_length(path, args.size)
    print(f"truncated to {args.size} bytes")
    return EX_OK


def cmd_fs_lock(args) -> int:
    length = args.length if args.length is not None else WHOLE_FILE
    fs, path = _fs_open(args)
    with fs:
        lock_id = fs.lock(path, args.offset, length)
        print(f"lock {lock_id} acquired")
        if args.hold > 0:
            time.sleep(args.hold)
        fs.unlock(path, lock_id)
        print(f"lock {lock_id} released")
    return EX_OK


def cmd_fs_unlock(args) -> int:
    # Locks die with their session, so this can only release a lock id
    # from the same invocation; its real use is demonstrating NotOwner.
    fs, path = _fs_open(args)
    with fs:
        fs.unlock(path, args.lock_id)
    print(f"lock {args.lock_id} released")
    return EX_OK


# -- submit ------------------------------------------------------------------

def _parse_dependency(token: str) -> tuple[str, str]:
    source, sep, name = token.rpartition(":")
    if not sep or not source:
        source, name = token, Path(token).name
    return name, source


def cmd_submit(args) -> int:
    if not args.command:
        raise UsageError("no command given")
    command = list(args.command)
    if command and command[0] == "--":
        command = command[1:]
    if not command:
        raise UsageError("no command given")
    user, psk = client_identity(args)
    dependencies = [_parse_dependency(token) for token in args.dep]
    spec = process_task(command[0], command[1:],
                        dependencies=dependencies, outputs=args.output,
                        timeout=args.timeout, network_access=args.network)
    client = TaskClient(parse_node_address(args.node), user, psk,
                        security=SECURITY_NAMES[args.security],
                        streams=args.streams, buffer_size=args.buffer)
    handle = client.submit([spec])
    try:
        results = client.collect(
            handle, Path(args.out_dir) if args.output else None)
    finally:
        client.close(handle)
    result = results[0]
    sys.stdout.buffer.write(result.stdout)
    sys.stderr.buffer.write(result.stderr)
    sys.stdout.flush()
    sys.stderr.flush()
    if result.status == TaskStatus.OK:
        return EX_OK
    label = result.status.name.lower()
    detail = result.message or (f"exit code {result.exit_code}"
                                if result.exit_code is not None else "")
    print(f"gridfs: task {label}" + (f": {detail}" if detail else ""),
          file=sys.stderr)
    return EX_DENIED if result.status == TaskStatus.DENIED else EX_FAILURE


# -- pi ----------------------------------------------------------------------

def cmd_pi(args) -> int:
    if not args.nodes:
        print(pi_hex_digits(args.start, args.count))
        return EX_OK
    user, psk = client_identity(args)
    addresses = [parse_node_address(text)
                 for text in args.nodes.split(",") if text]
    if not addresses:
        raise UsageError("--nodes is empty")
    print(pi_across(addresses, args.start, args.count, user, psk,
                    security=SECURITY_NAMES[args.security],
                    buffer_size=args.buffer))
    return EX_OK


# -- crypt -------------------------------------------------------------------

def _cipher_params(args) -> CipherParams:
    return CipherParams(args.cipher, hex_bytes(args.key, "--key"),
                        hex_bytes(args.iv, "--iv"))


def cmd_crypt_encrypt(args) -> int:
    user, psk = client_identity(args)
    workers = ["%s:%d" % parse_node_address(text)
               for text in args.workers.split(",") if text]
    collector = ("%s:%d" % parse_node_address(args.collector)
                 if args.collector else None)
    manifest = distribute(
        Path(args.file), workers, _cipher_params(args), user, psk,
        block_size=args.block_size,
        security=SECURITY_NAMES[args.security],
        collector=collector,
        buffer_size=args.buffer,
        manifest_path=Path(args.manifest) if args.manifest else None)
    manifest_path = (Path(args.manifest) if args.manifest
                     else manifest_path_for(Path(args.file)))
    print(f"placed {len(manifest.placements)} block(s); "
          f"manifest at {manifest_path}")
    return EX_OK


def cmd_crypt_decrypt(args) -> int:
    user, psk = client_identity(args)
    source = Path(args.file)
    manifest = (Path(args.manifest) if args.manifest
                else manifest_path_for(source))
    destination = Path(args.out) if args.out else source
    reassemble(manifest, _cipher_params(args), destination, user, psk,
               security=SECURITY_NAMES[args.security],
               buffer_size=args.buffer)
    with open(destination, "rb") as rebuilt:
        digest = hashlib.file_digest(rebuilt, "sha256").hexdigest()
    print(f"rebuilt {destination} sha256={digest}")
    return EX_OK


# -- account -----------------------------------------------------------------

def _account_store(args) -> AccountStore:
    config = resolve_node_config(args)
    return AccountStore(config.account_dir(), Path(config.storage_root))


def cmd_account_add(args) -> int:
    store = _account_store(args)
    if args.admin:
        doc = PermissionDoc.administrator()
    else:
        grants = {}
        for name in args.allow:
            if name not in FLAG_ORDER:
                raise UsageError(f"unknown permission flag {name!r}")
            grants[name] = True
        doc = PermissionDoc.others(**grants)
    store.add(args.username, hex_bytes(args.psk, "--psk"), doc)
    print(f"account {args.username} written")
    return EX_OK


def cmd_account_show(args) -> int:
    store = _account_store(args)
    account = store.get(args.username)
    if account is None:
        print(f"gridfs: no account {args.username!r}", file=sys.stderr)
        return EX_FAILURE
    print(f"{account.username}: {account.doc.account_type}")
    for name in FLAG_ORDER:
        print(f"  {name} = {account.doc.flag(name)}")
    return EX_OK


def cmd_account_set_perm(args) -> int:
    value_text = args.value.strip().lower()
    if value_text not in ("true", "false"):
        raise UsageError("VALUE must be true or false")
    store = _account_store(args)
    store.set_flag(args.username, args.flag, value_text == "true")
    print(f"{args.username}.{args.flag} = {value_text == 'true'}")
    return EX_OK


# -- parser ------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridfs",
        description="desktop grid file transfer, remote execution "
                    "and block cryptography")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("serve", help="run a node daemon")
    p.add_argument("--config", metavar="PATH",
                   help="node config file (default: $GRIDFS_CONFIG)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("cp", help="copy a file to or from a node, "
                                  "verified end to end with SHA-256")
    p.add_argument("src", metavar="SRC")
    p.add_argument("dst", metavar="DST")
    p.add_argument("--streams", type=int, default=1)
    p.add_argument("--chunk", type=int, default=None, metavar="BYTES")
    p.add_argument("--offset", type=int, default=None)
    p.add_argument("--length", type=int, default=None)
    add_client_options(p)
    p.set_defaults(func=cmd_cp)

    p = sub.add_parser("bench", help="memory-to-memory throughput")
    p.add_argument("--node", required=True, metavar="HOST[:PORT]")
    p.add_argument("--streams", type=int, default=1)
    p.add_argument("--seconds", type=float, default=3.0)
    add_client_options(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("fs", help="remote file operations")
    fs_sub = p.add_subparsers(dest="fs_verb", required=True)

    def fs_parser(name, handler, **extras):
        q = fs_sub.add_parser(name)
        q.add_argument("remote", metavar="NODE:PATH")
        for flag, options in extras.items():
            q.add_argument(flag, **options)
        add_client_options(q)
        q.set_defaults(func=handler)
        return q

    fs_parser("read", cmd_fs_read,
              **{"--offset": dict(type=int, default=0),
                 "--length": dict(type=int, default=None),
                 "--out": dict(metavar="FILE")})
    fs_parser("write", cmd_fs_write,
              **{"--offset": dict(type=int, default=0),
                 "--data": dict(metavar="TEXT"),
                 "--input": dict(metavar="FILE")})
    fs_parser("stat", cmd_fs_stat)
    fs_parser("truncate", cmd_fs_truncate,
              **{"--size": dict(type=int, required=True)})
    fs_parser("lock", cmd_fs_lock,
              **{"--offset": dict(type=int, default=0),
                 "--length": dict(type=int, default=None),
                 "--hold": dict(type=float, default=0.0,
                                help="seconds to hold before releasing")})
    fs_parser("unlock", cmd_fs_unlock,
              **{"--lock-id": dict(type=int, required=True)})

    p = sub.add_parser("submit", help="run one process task on a node")
    p.add_argument("--node", required=True, metavar="HOST[:PORT]")
    p.add_argument("--dep", action="append", default=[],
                   metavar="FILE[:NAME]", help="stage a local file")
    p.add_argument("--output", action="append", default=[], metavar="NAME",
                   help="declare an output to fetch back")
    p.add_argument("--out-dir", default=".", metavar="DIR")
    p.add_argument("--timeout", type=float, default=0.0)
    p.add_argument("--network", action="store_true",
                   help="task may open sockets")
    p.add_argument("--streams", type=int, default=1)
    add_client_options(p)
    p.add_argument("command", nargs=argparse.REMAINDER, metavar="CMD ...")
    p.set_defaults(func=cmd_submit)

    p = sub.add_parser("pi", help="hexadecimal digits of pi")
    p.add_argument("start", type=int)
    p.add_argument("count", type=int)
    p.add_argument("--nodes", metavar="HOST[:PORT],...",
                   help="fan the range out over these nodes")
    add_client_options(p)
    p.set_defaults(func=cmd_pi)

    p = sub.add_parser("crypt", help="distributed block cryptography")
    crypt_sub = p.add_subparsers(dest="crypt_verb", required=True)
    for name, handler in (("encrypt", cmd_crypt_encrypt),
                          ("decrypt", cmd_crypt_decrypt)):
        q = crypt_sub.add_parser(name, help=(
            "encrypt FILE into blocks parked on the workers"
            if name == "encrypt" else
            "pull, verify and decrypt the blocks, then print the rebuilt "
            "file's SHA-256"))
        q.add_argument("file", metavar="FILE")
        q.add_argument("--cipher", choices=("aes128", "tdes"),
                       default="aes128")
        q.add_argument("--key", required=True, metavar="HEX")
        q.add_argument("--iv", required=True, metavar="HEX")
        q.add_argument("--manifest", metavar="PATH")
        if name == "encrypt":
            q.add_argument("--workers", required=True,
                           metavar="HOST[:PORT],...")
            q.add_argument("--block-size", type=int,
                           default=DEFAULT_BLOCK_SIZE, metavar="BYTES")
            q.add_argument("--collector", metavar="HOST[:PORT]")
        else:
            q.add_argument("--out", metavar="FILE")
        add_client_options(q)
        q.set_defaults(func=handler)

    p = sub.add_parser("account", help="manage a node's account store")
    acct_sub = p.add_subparsers(dest="account_verb", required=True)

    q = acct_sub.add_parser("add")
    q.add_argument("username")
    q.add_argument("--psk", required=True, metavar="HEX")
    q.add_argument("--admin", action="store_true")
    q.add_argument("--allow", action="append", default=[], metavar="FLAG",
                   help="grant one permission flag (repeatable)")
    q.add_argument("--config", metavar="PATH")
    q.set_defaults(func=cmd_account_add)

    q = acct_sub.add_parser("show")
    q.add_argument("username")
    q.add_argument("--config", metavar="PATH")
    q.set_defaults(func=cmd_account_show)

    q = acct_sub.add_parser("set-perm")
    q.add_argument("username")
    q.add_argument("flag", choices=FLAG_ORDER)
    q.add_argument("value", metavar="VALUE", help="true or false")
    q.add_argument("--config", metavar="PATH")
    q.set_defaults(func=cmd_account_set_perm)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"gridfs: {exc}", file=sys.stderr)
        return EX_USAGE
    except (PermissionDenied, AuthFailed) as exc:
        print(f"gridfs: {exc}", file=sys.stderr)
        return EX_DENIED
    except GridfsError as exc:
        print(f"gridfs: {exc}", file=sys.stderr)
        return EX_FAILURE
    except OSError as exc:
        print(f"gridfs: {exc}", file=sys.stderr)
        return EX_FAILURE
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":
    sys.exit(main())
