"""gridfs: desktop-grid node daemon and client toolkit.

A single daemon (``gridfs serve``) exposes four services over one framed
TCP protocol: a stateless remote file system with byte-range locks, a
parallel-stream bulk transfer engine with resume and end-to-end integrity,
a remote task execution service, and a per-block cryptography service.
On top of them sits a distributed block-sliced encryption application.
"""

__version__ = "0.1.0"
