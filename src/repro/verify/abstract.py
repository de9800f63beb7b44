"""Abstract replay: static prediction of replay outcomes and final FS state.

The second ``artc verify`` engine.  Where translation validation
(:mod:`repro.verify.transval`) proves the *generated programs* faithful
to the scoreboard semantics, this module predicts what any faithful
replay must *produce*: the per-action errno outcomes and the final
file-system state digest -- without running the discrete-event
simulator at all.

Abstract domain
---------------

The domain is a flat lattice: a fully concrete summary state (namespace
tree, fd table, per-inode size/xattr/link summaries -- everything the
final-state digest depends on, and nothing timing-dependent) with a
single top element ``UNKNOWN`` above it.  Transfer functions are exact
mirrors of the concrete VFS (:mod:`repro.vfs.filesystem`) and executor
(:mod:`repro.syscalls.execute`) with every timing ``yield`` deleted;
the inode table, fd table, and path resolver are *shared code* with the
concrete interpreter (``repro.vfs.nodes`` / ``repro.vfs.fdtable``), so
only the per-op bodies are mirrored.  Snapshot initialization and
final-state capture reuse :func:`repro.artc.init.initialize` and
:meth:`repro.tracing.snapshot.Snapshot.capture` verbatim.

Whenever an action's effect could depend on scheduling or on simulator
internals the mirror cannot see -- in-flight aio writes racing a
truncate, a raw trace descriptor falling back unmapped into a replay fd
table with different numbering, an op the concrete replay would crash
on -- the interpreter *widens* to top and reports ``UNKNOWN`` for the
remaining actions rather than guessing.  Predictions are therefore
sound by construction: ``exact`` means *every* admissible schedule of
the requested mode produces exactly this digest and these errnos;
``unknown`` promises nothing.

Mode gating
-----------

Trace-order interpretation is one particular linearization.  It speaks
for all schedules of a mode only when every conflicting action pair is
ordered by that mode's constraints -- which is precisely the race scan
of :func:`repro.lint.conflicts.find_races`:

- ``single-threaded`` (and ARTC with ``program_seq``): replay *is*
  trace order; always eligible.
- ``artc``: eligible iff the dependency graph leaves zero races.
- ``temporally-ordered`` / ``unconstrained``: eligible iff the trace
  has zero cross-thread conflicting pairs at all (races under the
  bare ``thread_seq`` rule set).

A multithreaded non-sequential trace that shares its working directory
(``chdir``/``fchdir``) is refused outright: the replay threads share
one ``cwd`` and relative resolution becomes schedule-dependent.
"""

import hashlib
import json
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.deps import build_dependencies
from repro.core.model import Action, TraceModel
from repro.core.modes import ReplayMode, RuleSet
from repro.lint.conflicts import find_races, touch_table
from repro.syscalls.emulation import DEFAULT_OPTIONS, EmulationOptions, plan_for
from repro.syscalls.registry import spec_for
from repro.tracing.snapshot import Snapshot
from repro.vfs import flags as F
from repro.vfs.errnos import Errno, VfsError
from repro.vfs.fdtable import FDTable, OpenFile
from repro.vfs.nodes import FileType, Inode, InodeTable, Resolved, resolve

#: Outcome sentinel: the abstract interpreter declines to predict.
UNKNOWN = "UNKNOWN"

#: ``Prediction.to_dict()`` format tag.
PREDICTION_FORMAT = "artc-abstract-v1"

Outcome = Optional[str]  # errno string, None for success, or UNKNOWN
OpResult = Tuple[Any, Optional[str]]


class Widened(Exception):
    """The abstract state jumped to top.

    ``scope`` is ``"suffix"`` when everything *before* the widening
    action is still trustworthy, ``"global"`` when the widening cause
    (raw-fd aliasing) could have perturbed unordered earlier actions
    too.
    """

    def __init__(self, reason: str, scope: str = "suffix") -> None:
        super().__init__(reason)
        self.reason = reason
        self.scope = scope


# ----------------------------------------------------------------------
# the abstract file system
# ----------------------------------------------------------------------


class _NullAlloc(object):
    """Stands in for the storage allocator during initialization."""

    def ensure_blocks(self, ino: int, nblocks: int) -> None:
        return None


class _NullStack(object):
    """Timing-free stand-in for the storage stack: just enough surface
    for :func:`repro.artc.init.initialize` and ``_maybe_free``."""

    def __init__(self) -> None:
        self.alloc = _NullAlloc()

    def warm_metadata(self, inos: Sequence[int]) -> None:
        return None

    def drop_file(self, tid: Optional[int], ino: int) -> None:
        return None


class AbstractFS(object):
    """The concrete-summary element of the abstract domain.

    Mirrors :class:`repro.vfs.filesystem.FileSystem` op for op with all
    timing deleted, sharing its inode table, fd table, and resolver.
    Exposes the same initialization surface (``table``, ``stack``,
    ``lookup``, ``exists``, ``*_now``) so snapshot setup and final-state
    capture run the *same code* as the dynamic side.

    Ops raise :class:`VfsError` for modeled failures and
    :class:`Widened` where the concrete outcome is schedule- or
    crash-dependent; otherwise they return ``(ret, err)``.
    """

    def __init__(self, platform: str = "linux") -> None:
        self.platform = platform
        self.table = InodeTable()
        self.fdt = FDTable()
        self.cwd = InodeTable.ROOT_INO
        self.stack = _NullStack()
        # cb_id -> (ino, is_write); ino -> in-flight write cb_ids
        self._aiocbs: Dict[Any, Tuple[int, bool]] = {}
        self._inflight: Dict[int, Set[Any]] = {}
        self._setup_devfs()

    # -- initialization surface (shared with repro.artc.init) ----------

    def _setup_devfs(self) -> None:
        self.mkdir_now("/dev")
        self.mkdir_now("/dev/shm")
        self.mknod_now("/dev/null", "null")
        self.mknod_now("/dev/zero", "zero")
        self.mknod_now("/dev/random", "random")
        self.mknod_now("/dev/urandom", "urandom")
        self.mknod_now("/dev/tty", "tty")
        self.mkdir_now("/tmp")

    def mkdir_now(self, path: str, mode: int = 0o755) -> Inode:
        res = resolve(self.table, self.cwd, path)
        if res.inode is not None:
            if not res.inode.is_dir:
                raise VfsError(Errno.ENOTDIR)
            return res.inode
        child = self.table.alloc(FileType.DIR, mode)
        res.parent.children[res.name] = child.ino
        res.parent.nlink += 1
        return child

    def makedirs_now(self, path: str) -> Inode:
        parts = [p for p in path.split("/") if p]
        built = ""
        inode = self.table.root
        for part in parts:
            built += "/" + part
            inode = self.mkdir_now(built)
        return inode

    def create_file_now(self, path: str, size: int = 0, mode: int = 0o644) -> Inode:
        res = resolve(self.table, self.cwd, path)
        if res.inode is not None:
            res.inode.size = size
            inode = res.inode
        else:
            inode = self.table.alloc(FileType.REG, mode)
            inode.size = size
            res.parent.children[res.name] = inode.ino
        if size > 0:
            self.stack.alloc.ensure_blocks(inode.ino, (size + 4095) // 4096)
        return inode

    def symlink_now(self, target: str, path: str) -> Inode:
        res = resolve(self.table, self.cwd, path, follow_last=False)
        if res.inode is not None:
            raise VfsError(Errno.EEXIST)
        child = self.table.alloc(FileType.SYMLINK, 0o777)
        child.symlink_target = target
        child.size = len(target)
        res.parent.children[res.name] = child.ino
        return child

    def mknod_now(self, path: str, special: str) -> Inode:
        res = resolve(self.table, self.cwd, path, follow_last=False)
        if res.inode is not None:
            return res.inode
        child = self.table.alloc(FileType.CHAR, 0o666)
        child.special = special
        res.parent.children[res.name] = child.ino
        return child

    def unlink_now(self, path: str) -> None:
        res = resolve(self.table, self.cwd, path, follow_last=False)
        if res.inode is None:
            raise VfsError(Errno.ENOENT)
        if res.inode.is_dir:
            res.parent.children.pop(res.name)
            res.parent.nlink -= 1
        else:
            res.parent.children.pop(res.name)
            res.inode.nlink -= 1
        self._maybe_free(res.inode)

    def exists(self, path: str, follow: bool = True) -> bool:
        try:
            res = self._walk(path, follow_last=follow)
        except VfsError:
            return False
        return res.inode is not None

    def lookup(self, path: str, follow: bool = True) -> Optional[Inode]:
        try:
            res = self._walk(path, follow_last=follow)
        except VfsError:
            return None
        return res.inode

    # -- plumbing ------------------------------------------------------

    def _walk(self, path: str, follow_last: bool = True) -> Resolved:
        return resolve(self.table, self.cwd, path, follow_last=follow_last)

    def _maybe_free(self, inode: Inode) -> None:
        if inode.nlink <= 0 and inode.open_count == 0 and not inode.is_dir:
            if inode.ino in self.table:
                self.table.free(inode.ino)
            self.stack.drop_file(None, inode.ino)

    def _file_of(self, fd: Any, kinds: Tuple[str, ...] = ("file",)) -> OpenFile:
        open_file = self.fdt.get(fd)
        if open_file.kind not in kinds:
            raise VfsError(Errno.EBADF)
        return open_file

    def _inode_of(self, open_file: OpenFile) -> Inode:
        if open_file.ino is None:
            # A pipe descriptor where the concrete op would do
            # ``table.get(None)`` and crash the replay outright.
            raise Widened("pipe-descriptor-crash")
        return self.table.get(open_file.ino)

    def _xattr_missing_errno(self) -> str:
        return Errno.ENODATA if self.platform == "linux" else Errno.ENOATTR

    def _size_guard(self, inode: Inode) -> None:
        """Reading (or overwriting) ``inode.size`` while aio writes are
        in flight is schedule-dependent: widen instead of guessing."""
        if self._inflight.get(inode.ino):
            raise Widened("aio-write-in-flight")

    def _cut(self, inode: Inode, length: int) -> None:
        if length < 0:
            raise VfsError(Errno.EINVAL)
        self._size_guard(inode)
        inode.size = length

    # -- mirrored ops --------------------------------------------------

    def op_open(self, path: str, flags: int, mode: int = 0o644) -> OpResult:
        follow = not (flags & (F.O_NOFOLLOW | F.O_SYMLINK))
        res = self._walk(path, follow_last=follow)
        inode = res.inode
        accmode = flags & F.O_ACCMODE
        wants_write = accmode in (F.O_WRONLY, F.O_RDWR)
        if inode is None:
            if res.name is None:
                raise VfsError(Errno.EISDIR)
            if not (flags & F.O_CREAT):
                raise VfsError(Errno.ENOENT)
            inode = self.table.alloc(FileType.REG, mode)
            res.parent.children[res.name] = inode.ino
        else:
            if (flags & F.O_CREAT) and (flags & F.O_EXCL):
                raise VfsError(Errno.EEXIST)
            if inode.is_symlink and not follow and not (flags & F.O_SYMLINK):
                raise VfsError(Errno.ELOOP)
            if inode.is_dir:
                if wants_write:
                    raise VfsError(Errno.EISDIR)
            elif flags & F.O_DIRECTORY:
                raise VfsError(Errno.ENOTDIR)
            if (flags & F.O_TRUNC) and wants_write and inode.is_reg:
                self._cut(inode, 0)
        kind = "dir" if inode.is_dir else "file"
        open_file = OpenFile(inode.ino, flags, kind=kind, path=path)
        inode.open_count += 1
        fd = self.fdt.alloc(open_file)
        return fd, None

    def op_creat(self, path: str, mode: int = 0o644) -> OpResult:
        return self.op_open(path, F.O_WRONLY | F.O_CREAT | F.O_TRUNC, mode)

    def op_close(self, fd: Any) -> OpResult:
        self.fdt.get(fd)
        last = self.fdt.remove(fd)
        if last is not None and last.kind in ("file", "dir"):
            inode = self.table.get(last.ino)
            inode.open_count -= 1
            self._maybe_free(inode)
        return 0, None

    def op_dup(self, fd: Any) -> OpResult:
        newfd = self.fdt.dup(fd, None)
        open_file = self.fdt.get(newfd)
        if open_file.kind in ("file", "dir"):
            self.table.get(open_file.ino).open_count += 1
        return newfd, None

    def op_rw(self, fd: Any, nbytes: int, offset: Optional[int],
              is_write: bool) -> OpResult:
        open_file = self.fdt.get(fd)
        if open_file.kind == "dir":
            raise VfsError(Errno.EISDIR)
        if open_file.kind.startswith("pipe"):
            if (open_file.kind == "pipe_w") != is_write:
                raise VfsError(Errno.EBADF)
            return nbytes, None
        accmode = open_file.flags & F.O_ACCMODE
        if is_write and accmode == F.O_RDONLY:
            raise VfsError(Errno.EBADF)
        if not is_write and accmode == F.O_WRONLY:
            raise VfsError(Errno.EBADF)
        inode = self.table.get(open_file.ino)
        if inode.ftype == FileType.CHAR:
            # Char-device I/O never touches the shared offset.
            if is_write:
                return nbytes, None
            return (0 if inode.special == "null" else nbytes), None
        at = open_file.offset if offset is None else offset
        if is_write:
            if (open_file.flags & F.O_APPEND) and offset is None:
                self._size_guard(inode)
                at = inode.size
            inode.size = max(inode.size, at + nbytes)
            done = nbytes
        else:
            if offset is None:
                # The shared-offset advance below depends on the size.
                self._size_guard(inode)
            done = max(0, min(nbytes, inode.size - at))
        if offset is None:
            open_file.offset = at + done
        return done, None

    def op_lseek(self, fd: Any, offset: int, whence: int) -> OpResult:
        open_file = self.fdt.get(fd)
        if open_file.kind.startswith("pipe"):
            raise VfsError(Errno.ESPIPE)
        inode = self._inode_of(open_file)
        if whence == F.SEEK_SET:
            new = offset
        elif whence == F.SEEK_CUR:
            new = open_file.offset + offset
        elif whence == F.SEEK_END:
            self._size_guard(inode)
            new = inode.size + offset
        else:
            raise VfsError(Errno.EINVAL)
        if new < 0:
            raise VfsError(Errno.EINVAL)
        open_file.offset = new
        return new, None

    def op_fsync(self, fd: Any) -> OpResult:
        self._file_of(fd, kinds=("file", "dir"))
        return 0, None

    def op_sync(self) -> OpResult:
        return 0, None

    def op_stat(self, path: str, follow: bool = True) -> OpResult:
        res = self._walk(path, follow_last=follow)
        if res.inode is None:
            raise VfsError(Errno.ENOENT)
        return 0, None

    def op_fstat(self, fd: Any) -> OpResult:
        self.fdt.get(fd)
        return 0, None

    def op_readlink(self, path: str) -> OpResult:
        res = self._walk(path, follow_last=False)
        if res.inode is None:
            raise VfsError(Errno.ENOENT)
        if not res.inode.is_symlink:
            raise VfsError(Errno.EINVAL)
        return res.inode.symlink_target, None

    def op_getdents(self, fd: Any) -> OpResult:
        open_file = self._file_of(fd, kinds=("dir",))
        inode = self.table.get(open_file.ino)
        return sorted(inode.children), None

    def op_fstatfs(self, fd: Any) -> OpResult:
        self.fdt.get(fd)
        return 0, None

    def op_mkdir(self, path: str, mode: int = 0o755) -> OpResult:
        res = self._walk(path, follow_last=False)
        if res.inode is not None or res.name is None:
            raise VfsError(Errno.EEXIST)
        child = self.table.alloc(FileType.DIR, mode)
        res.parent.children[res.name] = child.ino
        res.parent.nlink += 1
        return 0, None

    def op_rmdir(self, path: str) -> OpResult:
        res = self._walk(path, follow_last=False)
        if res.inode is None:
            raise VfsError(Errno.ENOENT)
        if not res.inode.is_dir:
            raise VfsError(Errno.ENOTDIR)
        if res.inode.children:
            raise VfsError(Errno.ENOTEMPTY)
        if res.name is None:
            raise VfsError(Errno.EINVAL)
        del res.parent.children[res.name]
        res.parent.nlink -= 1
        self.table.free(res.inode.ino)
        return 0, None

    def op_unlink(self, path: str) -> OpResult:
        res = self._walk(path, follow_last=False)
        if res.inode is None:
            raise VfsError(Errno.ENOENT)
        if res.inode.is_dir:
            raise VfsError(Errno.EISDIR)
        del res.parent.children[res.name]
        res.inode.nlink -= 1
        self._maybe_free(res.inode)
        return 0, None

    def op_rename(self, old: str, new: str) -> OpResult:
        src = self._walk(old, follow_last=False)
        if src.inode is None:
            raise VfsError(Errno.ENOENT)
        dst = self._walk(new, follow_last=False)
        if dst.name is None and dst.inode is not src.inode:
            raise VfsError(Errno.EEXIST)
        if src.inode.is_dir:
            probe = dst.parent
            seen: Set[int] = set()
            while probe.ino not in seen:
                seen.add(probe.ino)
                if probe is src.inode:
                    raise VfsError(Errno.EINVAL)
                parent = self._parent_of(probe)
                if parent is None or parent is probe:
                    break
                probe = parent
        if dst.inode is not None:
            if dst.inode is src.inode:
                return 0, None
            if dst.inode.is_dir:
                if not src.inode.is_dir:
                    raise VfsError(Errno.EISDIR)
                if dst.inode.children:
                    raise VfsError(Errno.ENOTEMPTY)
                del dst.parent.children[dst.name]
                dst.parent.nlink -= 1
                self.table.free(dst.inode.ino)
            else:
                if src.inode.is_dir:
                    raise VfsError(Errno.ENOTDIR)
                del dst.parent.children[dst.name]
                dst.inode.nlink -= 1
                self._maybe_free(dst.inode)
        del src.parent.children[src.name]
        dst.parent.children[dst.name] = src.inode.ino
        if src.inode.is_dir and src.parent is not dst.parent:
            src.parent.nlink -= 1
            dst.parent.nlink += 1
        return 0, None

    def _parent_of(self, inode: Inode) -> Optional[Inode]:
        for candidate in list(self.table._inodes.values()):
            if candidate.is_dir and candidate.children:
                if inode.ino in candidate.children.values():
                    return candidate
        return None

    def op_link(self, target: str, path: str) -> OpResult:
        src = self._walk(target)
        if src.inode is None:
            raise VfsError(Errno.ENOENT)
        if src.inode.is_dir:
            raise VfsError(Errno.EPERM)
        dst = self._walk(path, follow_last=False)
        if dst.inode is not None:
            raise VfsError(Errno.EEXIST)
        dst.parent.children[dst.name] = src.inode.ino
        src.inode.nlink += 1
        return 0, None

    def op_symlink(self, target: str, path: str) -> OpResult:
        dst = self._walk(path, follow_last=False)
        if dst.inode is not None:
            raise VfsError(Errno.EEXIST)
        child = self.table.alloc(FileType.SYMLINK, 0o777)
        child.symlink_target = target
        child.size = len(target)
        dst.parent.children[dst.name] = child.ino
        return 0, None

    def op_truncate(self, path: str, length: int) -> OpResult:
        res = self._walk(path)
        if res.inode is None:
            raise VfsError(Errno.ENOENT)
        if res.inode.is_dir:
            raise VfsError(Errno.EISDIR)
        self._cut(res.inode, length)
        return 0, None

    def op_ftruncate(self, fd: Any, length: int) -> OpResult:
        open_file = self._file_of(fd)
        inode = self.table.get(open_file.ino)
        self._cut(inode, length)
        return 0, None

    def op_chmod(self, path: str, mode: int) -> OpResult:
        res = self._walk(path)
        if res.inode is None:
            raise VfsError(Errno.ENOENT)
        res.inode.mode = mode
        return 0, None

    def op_fchmod(self, fd: Any, mode: int) -> OpResult:
        open_file = self.fdt.get(fd)
        self._inode_of(open_file).mode = mode
        return 0, None

    def op_touch_path(self, path: str) -> OpResult:
        res = self._walk(path)
        if res.inode is None:
            raise VfsError(Errno.ENOENT)
        return 0, None

    def op_futimes(self, fd: Any) -> OpResult:
        self.fdt.get(fd)
        return 0, None

    def op_chdir(self, path: str) -> OpResult:
        res = self._walk(path)
        if res.inode is None:
            raise VfsError(Errno.ENOENT)
        if not res.inode.is_dir:
            raise VfsError(Errno.ENOTDIR)
        self.cwd = res.inode.ino
        return 0, None

    def op_fchdir(self, fd: Any) -> OpResult:
        open_file = self.fdt.get(fd)
        if open_file.ino is None:
            # Concrete replay sets cwd=None and crashes at the next walk.
            raise Widened("pipe-descriptor-crash")
        self.cwd = open_file.ino
        return 0, None

    def op_getcwd(self) -> OpResult:
        return "/", None

    def op_fadvise(self, fd: Any) -> OpResult:
        self._file_of(fd)
        return 0, None

    def op_fallocate(self, fd: Any, offset: int, length: int) -> OpResult:
        open_file = self._file_of(fd)
        inode = self.table.get(open_file.ino)
        # max() commutes with in-flight aio size maxes: no widening.
        inode.size = max(inode.size, offset + length)
        return 0, None

    def op_flock(self, fd: Any) -> OpResult:
        self.fdt.get(fd)
        return 0, None

    def op_mmap(self, fd: Any, offset: int, length: int) -> OpResult:
        if fd == -1:
            return 0x7F0000000000, None
        open_file = self._file_of(fd)
        inode = self.table.get(open_file.ino)
        return 0x7F0000000000 + inode.ino, None

    def op_trivial(self) -> OpResult:
        return 0, None

    def op_pipe(self) -> OpResult:
        read_end = self.fdt.alloc(OpenFile(None, F.O_RDONLY, kind="pipe_r"))
        write_end = self.fdt.alloc(OpenFile(None, F.O_WRONLY, kind="pipe_w"))
        return (read_end, write_end), None

    def op_shm_open(self, name: str, flags: int, mode: int) -> OpResult:
        return self.op_open("/dev/shm/" + name.lstrip("/"), flags, mode)

    def op_shm_unlink(self, name: str) -> OpResult:
        return self.op_unlink("/dev/shm/" + name.lstrip("/"))

    def op_getxattr(self, path: str, name: str, follow: bool = True) -> OpResult:
        res = self._walk(path, follow_last=follow)
        if res.inode is None:
            raise VfsError(Errno.ENOENT)
        return self._xattr_get(res.inode, name)

    def op_fgetxattr(self, fd: Any, name: str) -> OpResult:
        open_file = self._file_of(fd, kinds=("file", "dir"))
        return self._xattr_get(self.table.get(open_file.ino), name)

    def _xattr_get(self, inode: Inode, name: str) -> OpResult:
        if name not in inode.xattrs:
            return -1, self._xattr_missing_errno()
        return inode.xattrs[name], None

    def op_setxattr(self, path: str, name: str, size: int,
                    follow: bool = True) -> OpResult:
        res = self._walk(path, follow_last=follow)
        if res.inode is None:
            raise VfsError(Errno.ENOENT)
        res.inode.xattrs[name] = size
        return 0, None

    def op_fsetxattr(self, fd: Any, name: str, size: int) -> OpResult:
        open_file = self._file_of(fd, kinds=("file", "dir"))
        self.table.get(open_file.ino).xattrs[name] = size
        return 0, None

    def op_listxattr(self, path: str, follow: bool = True) -> OpResult:
        res = self._walk(path, follow_last=follow)
        if res.inode is None:
            raise VfsError(Errno.ENOENT)
        return sorted(res.inode.xattrs), None

    def op_flistxattr(self, fd: Any) -> OpResult:
        open_file = self._file_of(fd, kinds=("file", "dir"))
        return sorted(self.table.get(open_file.ino).xattrs), None

    def op_removexattr(self, path: str, name: str,
                       follow: bool = True) -> OpResult:
        res = self._walk(path, follow_last=follow)
        if res.inode is None:
            raise VfsError(Errno.ENOENT)
        if name not in res.inode.xattrs:
            return -1, self._xattr_missing_errno()
        del res.inode.xattrs[name]
        return 0, None

    def op_fremovexattr(self, fd: Any, name: str) -> OpResult:
        open_file = self._file_of(fd, kinds=("file", "dir"))
        inode = self.table.get(open_file.ino)
        if name not in inode.xattrs:
            return -1, self._xattr_missing_errno()
        del inode.xattrs[name]
        return 0, None

    def op_exchangedata(self, path1: str, path2: str) -> OpResult:
        a = self._walk(path1)
        b = self._walk(path2)
        if a.inode is None or b.inode is None:
            raise VfsError(Errno.ENOENT)
        if not (a.inode.is_reg and b.inode.is_reg):
            raise VfsError(Errno.EINVAL)
        self._size_guard(a.inode)
        self._size_guard(b.inode)
        a.inode.size, b.inode.size = b.inode.size, a.inode.size
        return 0, None

    def op_aio_submit(self, cb_id: Any, fd: Any, nbytes: int, offset: int,
                      is_write: bool) -> OpResult:
        open_file = self._file_of(fd)
        inode = self.table.get(open_file.ino)
        self._aiocbs[cb_id] = (inode.ino, is_write)
        if is_write:
            # The completion's only state effect commutes (max), so it
            # can be applied at submit time; size *reads* between here
            # and the matching aio_suspend widen via _size_guard.
            inode.size = max(inode.size, offset + nbytes)
            self._inflight.setdefault(inode.ino, set()).add(cb_id)
        return 0, None

    def op_aio_error(self, cb_id: Any) -> OpResult:
        if cb_id not in self._aiocbs:
            return -1, Errno.EINVAL
        return 0, None

    def op_aio_return(self, cb_id: Any) -> OpResult:
        block = self._aiocbs.pop(cb_id, None)
        if block is None:
            return -1, Errno.EINVAL
        return 0, None

    def op_aio_suspend(self, cb_ids: Sequence[Any]) -> OpResult:
        for cb_id in cb_ids:
            block = self._aiocbs.get(cb_id)
            if block is not None and block[1]:
                pending = self._inflight.get(block[0])
                if pending is not None:
                    pending.discard(cb_id)
                    if not pending:
                        del self._inflight[block[0]]
        return 0, None

    def op_lio_listio(self, raw_ops: Sequence[Dict[str, Any]]) -> OpResult:
        # Eager unpack, mirroring execute.py: a malformed op dict raises
        # KeyError before any submission (-> replay crash -> widening).
        ops = [
            (op["aiocb"], op["fd"], op["nbytes"], op.get("offset", 0),
             op.get("is_write", False))
            for op in raw_ops
        ]
        for aiocb, fd, nbytes, offset, is_write in ops:
            try:
                ret, err = self.op_aio_submit(aiocb, fd, nbytes, offset, is_write)
            except VfsError as exc:
                ret, err = -1, exc.errno
            if err is not None:
                return ret, err
        return 0, None


# ----------------------------------------------------------------------
# kind dispatch, mirroring repro.syscalls.execute.HANDLERS
# ----------------------------------------------------------------------


def _flags_of(args: Dict[str, Any]) -> int:
    value = args.get("flags", 0)
    if isinstance(value, str):
        value = F.parse_flags(value)
    return value


def _k_open(fs: AbstractFS, args: Dict[str, Any]) -> OpResult:
    return fs.op_open(args["path"], _flags_of(args), args.get("mode", 0o644))


def _k_creat(fs: AbstractFS, args: Dict[str, Any]) -> OpResult:
    return fs.op_creat(args["path"], args.get("mode", 0o644))


def _k_close(fs: AbstractFS, args: Dict[str, Any]) -> OpResult:
    return fs.op_close(args["fd"])


def _k_read(fs: AbstractFS, args: Dict[str, Any]) -> OpResult:
    return fs.op_rw(args["fd"], args["nbytes"], None, False)


def _k_pread(fs: AbstractFS, args: Dict[str, Any]) -> OpResult:
    return fs.op_rw(args["fd"], args["nbytes"], args["offset"], False)


def _k_write(fs: AbstractFS, args: Dict[str, Any]) -> OpResult:
    return fs.op_rw(args["fd"], args["nbytes"], None, True)


def _k_pwrite(fs: AbstractFS, args: Dict[str, Any]) -> OpResult:
    return fs.op_rw(args["fd"], args["nbytes"], args["offset"], True)


def _k_lseek(fs: AbstractFS, args: Dict[str, Any]) -> OpResult:
    return fs.op_lseek(args["fd"], args["offset"], args.get("whence", F.SEEK_SET))


def _k_fsync(fs: AbstractFS, args: Dict[str, Any]) -> OpResult:
    return fs.op_fsync(args["fd"])


def _k_sync(fs: AbstractFS, args: Dict[str, Any]) -> OpResult:
    return fs.op_sync()


def _k_stat(fs: AbstractFS, args: Dict[str, Any]) -> OpResult:
    return fs.op_stat(args["path"], follow=True)


def _k_lstat(fs: AbstractFS, args: Dict[str, Any]) -> OpResult:
    return fs.op_stat(args["path"], follow=False)


def _k_fstat(fs: AbstractFS, args: Dict[str, Any]) -> OpResult:
    return fs.op_fstat(args["fd"])


def _k_access(fs: AbstractFS, args: Dict[str, Any]) -> OpResult:
    return fs.op_touch_path(args["path"])


def _k_readlink(fs: AbstractFS, args: Dict[str, Any]) -> OpResult:
    return fs.op_readlink(args["path"])


def _k_statfs(fs: AbstractFS, args: Dict[str, Any]) -> OpResult:
    return fs.op_touch_path(args["path"])


def _k_fstatfs(fs: AbstractFS, args: Dict[str, Any]) -> OpResult:
    return fs.op_fstatfs(args["fd"])


def _k_statfs_global(fs: AbstractFS, args: Dict[str, Any]) -> OpResult:
    return fs.op_touch_path("/")


def _k_mkdir(fs: AbstractFS, args: Dict[str, Any]) -> OpResult:
    return fs.op_mkdir(args["path"], args.get("mode", 0o755))


def _k_rmdir(fs: AbstractFS, args: Dict[str, Any]) -> OpResult:
    return fs.op_rmdir(args["path"])


def _k_getdents(fs: AbstractFS, args: Dict[str, Any]) -> OpResult:
    return fs.op_getdents(args["fd"])


def _k_unlink(fs: AbstractFS, args: Dict[str, Any]) -> OpResult:
    return fs.op_unlink(args["path"])


def _k_rename(fs: AbstractFS, args: Dict[str, Any]) -> OpResult:
    return fs.op_rename(args["old"], args["new"])


def _k_link(fs: AbstractFS, args: Dict[str, Any]) -> OpResult:
    return fs.op_link(args["target"], args["path"])


def _k_symlink(fs: AbstractFS, args: Dict[str, Any]) -> OpResult:
    return fs.op_symlink(args["target"], args["path"])


def _k_truncate(fs: AbstractFS, args: Dict[str, Any]) -> OpResult:
    return fs.op_truncate(args["path"], args["length"])


def _k_ftruncate(fs: AbstractFS, args: Dict[str, Any]) -> OpResult:
    return fs.op_ftruncate(args["fd"], args["length"])


def _k_chmod(fs: AbstractFS, args: Dict[str, Any]) -> OpResult:
    return fs.op_chmod(args["path"], args.get("mode", 0o644))


def _k_fchmod(fs: AbstractFS, args: Dict[str, Any]) -> OpResult:
    return fs.op_fchmod(args["fd"], args.get("mode", 0o644))


def _k_chown(fs: AbstractFS, args: Dict[str, Any]) -> OpResult:
    return fs.op_touch_path(args["path"])


def _k_futimes(fs: AbstractFS, args: Dict[str, Any]) -> OpResult:
    return fs.op_futimes(args["fd"])


def _k_dup(fs: AbstractFS, args: Dict[str, Any]) -> OpResult:
    return fs.op_dup(args["fd"])


def _k_fcntl(fs: AbstractFS, args: Dict[str, Any]) -> OpResult:
    cmd = args.get("cmd", "F_GETFL")
    fd = args["fd"]
    if cmd == "F_FULLFSYNC":
        return fs.op_fsync(fd)
    if cmd in ("F_DUPFD", "F_DUPFD_CLOEXEC"):
        return fs.op_dup(fd)
    if cmd == "F_PREALLOCATE":
        return fs.op_fallocate(fd, 0, args.get("arg", 0) or 0)
    if cmd == "F_RDADVISE":
        return fs.op_fadvise(fd)
    return fs.op_flock(fd)


def _k_flock(fs: AbstractFS, args: Dict[str, Any]) -> OpResult:
    return fs.op_flock(args["fd"])


def _k_fadvise(fs: AbstractFS, args: Dict[str, Any]) -> OpResult:
    return fs.op_fadvise(args["fd"])


def _k_fallocate(fs: AbstractFS, args: Dict[str, Any]) -> OpResult:
    return fs.op_fallocate(args["fd"], args.get("offset", 0), args["length"])


def _k_mmap(fs: AbstractFS, args: Dict[str, Any]) -> OpResult:
    return fs.op_mmap(args.get("fd", -1), args.get("offset", 0), args["length"])


def _k_trivial(fs: AbstractFS, args: Dict[str, Any]) -> OpResult:
    return fs.op_trivial()


def _k_pipe(fs: AbstractFS, args: Dict[str, Any]) -> OpResult:
    return fs.op_pipe()


def _k_shm_open(fs: AbstractFS, args: Dict[str, Any]) -> OpResult:
    return fs.op_shm_open(
        args["name"], _flags_of(args) or (F.O_RDWR | F.O_CREAT),
        args.get("mode", 0o600),
    )


def _k_shm_unlink(fs: AbstractFS, args: Dict[str, Any]) -> OpResult:
    return fs.op_shm_unlink(args["name"])


def _k_chdir(fs: AbstractFS, args: Dict[str, Any]) -> OpResult:
    return fs.op_chdir(args["path"])


def _k_fchdir(fs: AbstractFS, args: Dict[str, Any]) -> OpResult:
    return fs.op_fchdir(args["fd"])


def _k_getcwd(fs: AbstractFS, args: Dict[str, Any]) -> OpResult:
    return fs.op_getcwd()


def _k_getattrlist(fs: AbstractFS, args: Dict[str, Any]) -> OpResult:
    return fs.op_stat(args["path"], follow=True)


def _k_setattrlist(fs: AbstractFS, args: Dict[str, Any]) -> OpResult:
    return fs.op_touch_path(args["path"])


def _k_fgetattrlist(fs: AbstractFS, args: Dict[str, Any]) -> OpResult:
    return fs.op_fstat(args["fd"])


def _k_getattrlistbulk(fs: AbstractFS, args: Dict[str, Any]) -> OpResult:
    return fs.op_getdents(args["fd"])


def _k_exchangedata(fs: AbstractFS, args: Dict[str, Any]) -> OpResult:
    return fs.op_exchangedata(args["path1"], args["path2"])


def _k_getxattr(fs: AbstractFS, args: Dict[str, Any]) -> OpResult:
    return fs.op_getxattr(args["path"], args["xname"])


def _k_lgetxattr(fs: AbstractFS, args: Dict[str, Any]) -> OpResult:
    return fs.op_getxattr(args["path"], args["xname"], follow=False)


def _k_fgetxattr(fs: AbstractFS, args: Dict[str, Any]) -> OpResult:
    return fs.op_fgetxattr(args["fd"], args["xname"])


def _k_setxattr(fs: AbstractFS, args: Dict[str, Any]) -> OpResult:
    return fs.op_setxattr(args["path"], args["xname"], args.get("size", 16))


def _k_lsetxattr(fs: AbstractFS, args: Dict[str, Any]) -> OpResult:
    return fs.op_setxattr(
        args["path"], args["xname"], args.get("size", 16), follow=False
    )


def _k_fsetxattr(fs: AbstractFS, args: Dict[str, Any]) -> OpResult:
    return fs.op_fsetxattr(args["fd"], args["xname"], args.get("size", 16))


def _k_listxattr(fs: AbstractFS, args: Dict[str, Any]) -> OpResult:
    return fs.op_listxattr(args["path"])


def _k_llistxattr(fs: AbstractFS, args: Dict[str, Any]) -> OpResult:
    return fs.op_listxattr(args["path"], follow=False)


def _k_flistxattr(fs: AbstractFS, args: Dict[str, Any]) -> OpResult:
    return fs.op_flistxattr(args["fd"])


def _k_removexattr(fs: AbstractFS, args: Dict[str, Any]) -> OpResult:
    return fs.op_removexattr(args["path"], args["xname"])


def _k_lremovexattr(fs: AbstractFS, args: Dict[str, Any]) -> OpResult:
    return fs.op_removexattr(args["path"], args["xname"], follow=False)


def _k_fremovexattr(fs: AbstractFS, args: Dict[str, Any]) -> OpResult:
    return fs.op_fremovexattr(args["fd"], args["xname"])


def _k_aio_read(fs: AbstractFS, args: Dict[str, Any]) -> OpResult:
    return fs.op_aio_submit(
        args["aiocb"], args["fd"], args["nbytes"], args.get("offset", 0), False
    )


def _k_aio_write(fs: AbstractFS, args: Dict[str, Any]) -> OpResult:
    return fs.op_aio_submit(
        args["aiocb"], args["fd"], args["nbytes"], args.get("offset", 0), True
    )


def _k_aio_error(fs: AbstractFS, args: Dict[str, Any]) -> OpResult:
    return fs.op_aio_error(args["aiocb"])


def _k_aio_return(fs: AbstractFS, args: Dict[str, Any]) -> OpResult:
    return fs.op_aio_return(args["aiocb"])


def _k_aio_suspend(fs: AbstractFS, args: Dict[str, Any]) -> OpResult:
    return fs.op_aio_suspend(args["aiocbs"])


def _k_lio_listio(fs: AbstractFS, args: Dict[str, Any]) -> OpResult:
    return fs.op_lio_listio(args.get("ops", []))


_DISPATCH: Dict[str, Callable[[AbstractFS, Dict[str, Any]], OpResult]] = {
    "open": _k_open,
    "creat": _k_creat,
    "close": _k_close,
    "read": _k_read,
    "pread": _k_pread,
    "write": _k_write,
    "pwrite": _k_pwrite,
    "lseek": _k_lseek,
    "fsync": _k_fsync,
    "fdatasync": _k_fsync,
    "sync": _k_sync,
    "stat": _k_stat,
    "lstat": _k_lstat,
    "fstat": _k_fstat,
    "access": _k_access,
    "readlink": _k_readlink,
    "statfs": _k_statfs,
    "fstatfs": _k_fstatfs,
    "statfs_global": _k_statfs_global,
    "mkdir": _k_mkdir,
    "rmdir": _k_rmdir,
    "getdents": _k_getdents,
    "unlink": _k_unlink,
    "rename": _k_rename,
    "link": _k_link,
    "symlink": _k_symlink,
    "truncate": _k_truncate,
    "ftruncate": _k_ftruncate,
    "chmod": _k_chmod,
    "fchmod": _k_fchmod,
    "chown": _k_chown,
    "fchown": _k_futimes,
    "utimes": _k_chown,
    "futimes": _k_futimes,
    "dup": _k_dup,
    "dup2": _k_dup,
    "fcntl": _k_fcntl,
    "flock": _k_flock,
    "fadvise": _k_fadvise,
    "fallocate": _k_fallocate,
    "mmap": _k_mmap,
    "munmap": _k_trivial,
    "msync": _k_trivial,
    "pipe": _k_pipe,
    "shm_open": _k_shm_open,
    "shm_unlink": _k_shm_unlink,
    "chdir": _k_chdir,
    "fchdir": _k_fchdir,
    "getcwd": _k_getcwd,
    "getattrlist": _k_getattrlist,
    "setattrlist": _k_setattrlist,
    "fgetattrlist": _k_fgetattrlist,
    "fsetattrlist": _k_futimes,
    "getattrlistbulk": _k_getattrlistbulk,
    "getdirentriesattr": _k_getattrlistbulk,
    "exchangedata": _k_exchangedata,
    "stat_extended": _k_stat,
    "lstat_extended": _k_lstat,
    "fstat_extended": _k_fstat,
    "getxattr": _k_getxattr,
    "lgetxattr": _k_lgetxattr,
    "fgetxattr": _k_fgetxattr,
    "setxattr": _k_setxattr,
    "lsetxattr": _k_lsetxattr,
    "fsetxattr": _k_fsetxattr,
    "listxattr": _k_listxattr,
    "llistxattr": _k_llistxattr,
    "flistxattr": _k_flistxattr,
    "removexattr": _k_removexattr,
    "lremovexattr": _k_lremovexattr,
    "fremovexattr": _k_fremovexattr,
    "aio_read": _k_aio_read,
    "aio_write": _k_aio_write,
    "aio_error": _k_aio_error,
    "aio_return": _k_aio_return,
    "aio_suspend": _k_aio_suspend,
    "aio_cancel": _k_aio_error,
    "lio_listio": _k_lio_listio,
}


# ----------------------------------------------------------------------
# the interpreter
# ----------------------------------------------------------------------


class _AbstractRun(object):
    """One trace-order abstract interpretation of a benchmark,
    mirroring the replayer's per-action pipeline
    (``_translate`` -> emulation plan -> steps -> ``_update_maps``)."""

    def __init__(self, benchmark: Any, target: str,
                 emulation: EmulationOptions, o_excl_fix: bool,
                 sequential: bool) -> None:
        self.fs = AbstractFS(platform=target)
        self.source: str = benchmark.platform
        self.target = target
        self.emulation = emulation
        self.o_excl_fix = o_excl_fix
        self.sequential = sequential
        self.fd_map: Dict[Tuple[Any, int], Any] = {}

    def _raw_fd(self, raw: Any) -> None:
        """An fd argument is about to be used untranslated (no mapping
        recorded, or no annotation).  Fine when it cannot alias a live
        replay descriptor, or when the abstract fd table provably
        mirrors the replay's; otherwise widen globally -- aliasing
        side effects could perturb even unordered earlier actions."""
        if isinstance(raw, int) and raw < FDTable.FIRST_FD:
            return  # std streams / -1: absent from every replay fd table
        if self.sequential:
            return  # single replay thread: fd numbering mirrors exactly
        raise Widened("raw-fd-aliasing", scope="global")

    def _translate(self, action: Action) -> Dict[str, Any]:
        record = action.record
        args = dict(record.args)
        ann = action.ann
        if "fd" in ann and "fd" in args:
            key = (args["fd"], ann["fd"])
            if key in self.fd_map:
                args["fd"] = self.fd_map[key]
            else:
                self._raw_fd(args["fd"])
        elif "fd" in args:
            self._raw_fd(args["fd"])
        if "aiocb" in ann and "aiocb" in args:
            args["aiocb"] = "%s@%d" % (args["aiocb"], ann["aiocb"])
        if "aiocb_gens" in ann and "aiocbs" in args:
            args["aiocbs"] = [
                "%s@%d" % (cb, gen)
                for cb, gen in zip(args["aiocbs"], ann["aiocb_gens"])
            ]
        if self.o_excl_fix and record.ok and isinstance(args.get("flags"), str):
            if "O_EXCL" in args["flags"] and "O_CREAT" in args["flags"]:
                args["flags"] = "|".join(
                    part for part in args["flags"].split("|") if part != "O_EXCL"
                )
        return args

    def _update_maps(self, action: Action, ret: Any, err: Optional[str]) -> None:
        if err is not None:
            return
        record = action.record
        ann = action.ann
        if "ret_fd" in ann and isinstance(record.ret, int):
            self.fd_map[(record.ret, ann["ret_fd"])] = ret
        if "newfd_gen" in ann:
            self.fd_map[(record.args["newfd"], ann["newfd_gen"])] = ret
        if "ret_fds" in ann and isinstance(record.ret, (list, tuple)):
            for trace_fd, gen, actual in zip(record.ret, ann["ret_fds"], ret):
                self.fd_map[(trace_fd, gen)] = actual

    def play(self, action: Action) -> Optional[str]:
        """Interpret one action; returns the predicted errno (or None
        for success).  Raises :class:`Widened` when the concrete
        outcome is not statically determined."""
        record = action.record
        try:
            args = self._translate(action)
        except Widened:
            raise
        except Exception as exc:
            # The concrete replayer would crash the same way.
            raise Widened("translate-failed: %r" % (exc,))
        name = record.name
        try:
            if spec_for(name).kind == "dup2":
                name = "dup"
            plan = plan_for(name, args, self.source, self.target, self.emulation)
        except Exception as exc:
            raise Widened("emulation-unplannable: %r" % (exc,))
        if not plan:
            return None  # META: (0, None), no map updates
        ret: Any = 0
        err: Optional[str] = None
        for step_name, step_args in plan:
            try:
                kind = spec_for(step_name).kind
            except Exception as exc:
                raise Widened("unknown-step: %r" % (exc,))
            handler = _DISPATCH.get(kind)
            if handler is None:
                raise Widened("no-abstract-handler: %s" % kind)
            try:
                ret, err = handler(self.fs, step_args)
            except VfsError as exc:
                ret, err = -1, exc.errno
            except Widened:
                raise
            except Exception as exc:
                # Missing argument / malformed value: the executor's
                # eager-unpack turns these into a ReplayError crash.
                raise Widened("step-would-crash: %s: %r" % (step_name, exc))
            if err is not None:
                break
        try:
            self._update_maps(action, ret, err)
        except Exception as exc:
            raise Widened("update-maps-failed: %r" % (exc,))
        return err


# ----------------------------------------------------------------------
# predictions
# ----------------------------------------------------------------------


class Prediction(object):
    """A per-mode static prediction.

    ``status`` is ``"exact"`` (digest and every outcome binding) or
    ``"unknown"``.  ``outcomes[i]`` is the predicted errno of action
    ``i`` -- ``None`` for success, an errno string for a modeled
    failure, or :data:`UNKNOWN`.  ``digest`` is None unless exact.
    ``widened_at`` is the action index where interpretation widened
    (None when it ran to completion or never started)."""

    __slots__ = ("mode", "target", "status", "reason", "digest",
                 "outcomes", "widened_at")

    def __init__(self, mode: str, target: str, status: str,
                 reason: Optional[str], digest: Optional[str],
                 outcomes: List[str], widened_at: Optional[int]) -> None:
        self.mode = mode
        self.target = target
        self.status = status
        self.reason = reason
        self.digest = digest
        self.outcomes = outcomes
        self.widened_at = widened_at

    @property
    def n_unknown(self) -> int:
        return sum(1 for out in self.outcomes if out == UNKNOWN)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "format": PREDICTION_FORMAT,
            "mode": self.mode,
            "target": self.target,
            "status": self.status,
            "reason": self.reason,
            "digest": self.digest,
            "actions": len(self.outcomes),
            "unknown": self.n_unknown,
            "widened_at": self.widened_at,
            "outcomes": list(self.outcomes),
        }

    def __repr__(self) -> str:
        return "<Prediction %s %s unknown=%d/%d>" % (
            self.mode, self.status, self.n_unknown, len(self.outcomes))


def _unknown(mode: str, target: str, n: int, reason: str) -> Prediction:
    return Prediction(mode, target, "unknown", reason, None,
                      [UNKNOWN] * n, None)


def _model_actions(benchmark: Any) -> List[Action]:
    """Touch-annotated actions (``.artcb``-loaded benchmarks carry
    empty touch lists; the race scan needs real ones). Cached."""
    cached = getattr(benchmark, "_abstract_model_actions", None)
    if cached is None:
        cached = TraceModel(benchmark.to_trace(), benchmark.snapshot).actions
        benchmark._abstract_model_actions = cached
    return cached


def _touch_table(benchmark: Any) -> Dict[Any, Any]:
    """The race scan's per-resource touch series.  Cached: it depends
    only on the touch stream, never on a mode's rules."""
    cached = getattr(benchmark, "_abstract_touch_table", None)
    if cached is None:
        cached = touch_table(_model_actions(benchmark))
        benchmark._abstract_touch_table = cached
    return cached


def _mode_races(benchmark: Any, mode: str) -> Optional[int]:
    """Unordered conflicting pairs under ``mode``'s constraints, or
    None when the scan was budget-truncated (treated as unknown).

    Cached per constraint graph, not per mode: ARTC scans the compiled
    dependency graph, while TEMPORAL and UNCONSTRAINED guarantee only
    thread order and so share one scan."""
    cache: Dict[str, Optional[int]] = getattr(benchmark, "_abstract_races", None) or {}
    key = "artc" if mode == ReplayMode.ARTC else "thread-order"
    if key in cache:
        return cache[key]
    actions = _model_actions(benchmark)
    if key == "artc":
        graph = benchmark.graph
    else:
        graph = build_dependencies(actions, RuleSet.unconstrained())
    scan = find_races(actions, graph, max_findings=0,
                      table=_touch_table(benchmark))
    races: Optional[int] = None if scan.truncated else scan.n_races
    cache[key] = races
    benchmark._abstract_races = cache
    return races


def _has_cwd_ops(benchmark: Any) -> bool:
    for action in benchmark.actions:
        try:
            if spec_for(action.record.name).kind in ("chdir", "fchdir"):
                return True
        except Exception:
            continue  # unregistered call: interpretation widens there
    return False


def predict(benchmark: Any, mode: str, target: Optional[str] = None,
            emulation: Optional[EmulationOptions] = None,
            o_excl_fix: bool = True) -> Prediction:
    """Predict replay outcomes of ``benchmark`` under ``mode`` against
    a ``target`` OS flavor (default: self-replay on the trace's own
    platform), without running the simulator."""
    if mode not in ReplayMode.ALL:
        raise ValueError("unknown replay mode: %r" % (mode,))
    target = target or benchmark.platform
    options = emulation if emulation is not None else DEFAULT_OPTIONS
    actions = benchmark.actions
    n = len(actions)
    multithreaded = len(benchmark.threads) > 1
    sequential = (
        mode == ReplayMode.SINGLE
        or (mode == ReplayMode.ARTC and benchmark.graph.program_seq)
        or not multithreaded
    )
    if not sequential:
        races = _mode_races(benchmark, mode)
        if races is None:
            return _unknown(mode, target, n, "race-scan-truncated")
        if races:
            return _unknown(mode, target, n, "unordered-races: %d" % races)
        if _has_cwd_ops(benchmark):
            return _unknown(mode, target, n, "shared-cwd")
    run = _AbstractRun(benchmark, target, options, o_excl_fix, sequential)
    if benchmark.snapshot is not None:
        try:
            from repro.artc.init import initialize

            initialize(run.fs, benchmark.snapshot)
        except Exception as exc:
            return _unknown(mode, target, n, "init-failed: %r" % (exc,))
    outcomes: List[str] = []
    widened_at: Optional[int] = None
    reason: Optional[str] = None
    for action in actions:
        try:
            err = run.play(action)
        except Widened as wid:
            widened_at = action.idx
            reason = wid.reason
            if wid.scope == "global":
                outcomes = []
            break
        outcomes.append(err)
    while len(outcomes) < n:
        outcomes.append(UNKNOWN)
    if widened_at is None:
        return Prediction(mode, target, "exact", None,
                          digest_of_entries(capture_entries(run.fs)),
                          outcomes, None)
    return Prediction(mode, target, "unknown", reason, None,
                      outcomes, widened_at)


def predict_all(benchmark: Any, modes: Optional[Sequence[str]] = None,
                target: Optional[str] = None) -> List[Prediction]:
    """One prediction per replay mode (default: all four)."""
    return [predict(benchmark, mode, target=target)
            for mode in (modes or ReplayMode.ALL)]


# ----------------------------------------------------------------------
# digests
# ----------------------------------------------------------------------


def capture_entries(fs: Any) -> List[Dict[str, Any]]:
    """Final-state snapshot entries of any FileSystem-shaped object
    (the concrete simulator's or an :class:`AbstractFS`) -- the same
    ``Snapshot.capture`` walk on both sides."""
    return [entry.to_dict() for entry in Snapshot.capture(fs).entries]


def digest_of_entries(entries: Sequence[Any]) -> str:
    """Canonical content digest of a final FS state."""
    items = [entry if isinstance(entry, dict) else entry.to_dict()
             for entry in entries]
    items.sort(key=lambda item: str(item.get("path", "")))
    blob = json.dumps(items, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def fs_digest(fs: Any) -> str:
    """Digest of a live file system's current state."""
    return digest_of_entries(capture_entries(fs))
