//! (g) Networking: sockets, protocol demux, NIC rings and softirq.
//!
//! The structure mirrors the Linux inet path at interference granularity:
//! socket and port lookups hash into per-bucket spinlocks (bucket count
//! scales with the instance's cores — the socket table *is* surface
//! area), the data path allocates sk_buffs from the slab, copies payload
//! across the user boundary, posts descriptors on per-queue NIC rings
//! (virtio doorbell = one VM exit in guests), and raises NET_RX softirq
//! work that a budgeted NAPI poller ([`crate::daemons`]) drains in
//! deferred context, competing with process time. Bounded receive
//! buffers and bounded descriptor rings push back on senders with
//! `EAGAIN`; payload bytes are conserved exactly (sent = received +
//! buffered + flushed), which the property tests pin down.

use crate::coverage::{cov, cov_bucket, fail};
use crate::dispatch::HCtx;
use crate::errno::Errno;
use crate::fault_site;
use crate::ops::{KOp, VmExitKind};
use crate::state::{FdKind, NET_PORT_SPACE};

/// Largest payload one sendto/recvfrom moves (matches file I/O's cap).
pub const MAX_MSG_BYTES: u64 = 65_536;

/// Coerces a raw length selector into a payload size.
fn msg_bytes(raw: u64) -> u64 {
    (raw % MAX_MSG_BYTES).max(64)
}

/// Resolves a raw selector to one of this slot's open sockets
/// (Syzkaller-style coercion, like [`HCtx::pick_fd`]).
fn pick_sock(h: &HCtx, raw: u64) -> Option<usize> {
    let fds = &h.k.state.slots[h.slot].fds;
    let socks = &h.k.state.net.socks;
    if fds.is_empty() {
        return None;
    }
    let start = (raw as usize) % fds.len();
    (0..fds.len())
        .map(|i| (start + i) % fds.len())
        .find_map(|i| match fds[i].kind {
            FdKind::Socket { idx } if socks[idx].open => Some(idx),
            _ => None,
        })
}

/// Like [`pick_sock`], but only listening sockets.
fn pick_listener(h: &HCtx, raw: u64) -> Option<usize> {
    let fds = &h.k.state.slots[h.slot].fds;
    let socks = &h.k.state.net.socks;
    if fds.is_empty() {
        return None;
    }
    let start = (raw as usize) % fds.len();
    (0..fds.len())
        .map(|i| (start + i) % fds.len())
        .find_map(|i| match fds[i].kind {
            FdKind::Socket { idx } if socks[idx].open && socks[idx].listening => Some(idx),
            _ => None,
        })
}

fn new_sock(h: &mut HCtx) -> usize {
    h.k.state.net.alloc_sock_slot()
}

/// Tears sock `src` down while its hash-bucket lock is held: port
/// release, buffered-payload flush (accounted, never silently lost),
/// accept-backlog purge and peer unlink. Returns the flushed byte count.
/// Shared by `shutdown(2)`, final `close(2)` and process exit.
pub(crate) fn release_sock_locked(h: &mut HCtx, src: usize) -> u64 {
    let net = &mut h.k.state.net;
    net.ports.retain(|&(_, s)| s != src);
    let flushed = net.socks[src].rx_bytes;
    net.flushed_bytes += flushed;
    let sk = &mut net.socks[src];
    sk.rx_bytes = 0;
    sk.listening = false;
    sk.port = None;
    sk.open = false;
    let pending = std::mem::take(&mut sk.backlog);
    if let Some(p) = sk.peer.take() {
        net.socks[p].peer = None;
    }
    for &c in &pending {
        net.socks[c].backlog_refs -= 1;
    }
    // Purge the dying socket from every accept backlog that still names
    // it: once its table slot is reclaimed, a stale backlog index would
    // alias whichever connection reuses the slot next. The count keeps
    // the all-socket walk off the common path, where nothing names it.
    if net.socks[src].backlog_refs > 0 {
        for other in net.socks.iter_mut() {
            other.backlog.retain(|&c| c != src);
        }
        net.socks[src].backlog_refs = 0;
    }
    flushed
}

/// Final-reference drop of sock `idx`, called when the descriptor
/// referencing it dies (close or process exit): release it if still
/// open — `shutdown(2)` may already have — then return its table slot
/// to the free list for reuse.
pub(crate) fn drop_sock_ref(h: &mut HCtx, idx: usize) {
    if h.k.state.net.socks[idx].open {
        let cost = h.cost();
        let nb = h.k.locks.sock_buckets.len();
        let bucket = h.k.locks.sock_buckets[idx % nb];
        h.lock(bucket);
        h.cpu(cost.proto_demux);
        let flushed = release_sock_locked(h, idx);
        h.unlock(bucket);
        if flushed > 0 {
            cov!(h, "net.close.flush");
        }
        h.push(KOp::RcuSync);
    }
    h.k.state.net.reclaim_sock_slot(idx);
}

/// socket(2): allocate a sock + file glue, install an fd.
pub fn sys_socket(h: &mut HCtx, flags: u64) {
    let cost = h.cost();
    cov!(h, "net.socket");
    if !h.try_slab_alloc(2, fault_site!("net.socket.sock")) {
        fail!(h, Errno::ENOMEM, "net.socket.enomem");
        return;
    }
    h.cpu(cost.sock_create);
    if flags & 1 == 0 {
        cov!(h, "net.socket.stream");
    } else {
        cov!(h, "net.socket.dgram");
    }
    let idx = new_sock(h);
    h.seq.result = h.install_fd(FdKind::Socket { idx });
}

/// bind(2): claim a port in the instance-global port table.
pub fn sys_bind(h: &mut HCtx, sock_sel: u64, port_sel: u64) {
    let cost = h.cost();
    cov!(h, "net.bind");
    let Some(src) = pick_sock(h, sock_sel) else {
        cov!(h, "net.bind.ebadf");
        h.cpu(120);
        h.seq.error = Some(Errno::EBADF);
        return;
    };
    let port = port_sel % NET_PORT_SPACE;
    let nb = h.k.locks.sock_buckets.len();
    let bucket = h.k.locks.sock_buckets[port as usize % nb];
    if !h.try_lock(bucket, fault_site!("net.bind.bucket")) {
        fail!(h, Errno::EAGAIN, "net.bind.busy");
        return;
    }
    h.cpu(cost.proto_demux);
    if h.k.state.net.lookup_port(port).is_some() {
        h.unlock(bucket);
        cov!(h, "net.bind.addrinuse");
        h.cpu(120);
        h.seq.error = Some(Errno::EINVAL);
        return;
    }
    let net = &mut h.k.state.net;
    net.ports.push((port, src));
    net.socks[src].port = Some(port);
    let table_len = net.ports.len() as u64;
    h.unlock(bucket);
    cov_bucket!(h, "net.bind.table", HCtx::size_class(table_len));
}

/// listen(2): mark a bound socket as accepting connections.
pub fn sys_listen(h: &mut HCtx, sock_sel: u64, backlog: u64) {
    let cost = h.cost();
    cov!(h, "net.listen");
    let Some(src) = pick_sock(h, sock_sel) else {
        cov!(h, "net.listen.ebadf");
        h.cpu(120);
        h.seq.error = Some(Errno::EBADF);
        return;
    };
    if h.k.state.net.socks[src].port.is_none() {
        cov!(h, "net.listen.einval");
        h.cpu(120);
        h.seq.error = Some(Errno::EINVAL);
        return;
    }
    if !h.try_slab_alloc(1, fault_site!("net.listen.backlog")) {
        fail!(h, Errno::ENOMEM, "net.listen.enomem");
        return;
    }
    h.cpu(cost.sock_create / 2);
    let sk = &mut h.k.state.net.socks[src];
    sk.listening = true;
    sk.backlog_cap = (backlog % 64).max(8);
}

/// connect(2): three-way handshake against a listening port; the SYN
/// rides the NIC like any other packet.
pub fn sys_connect(h: &mut HCtx, sock_sel: u64, port_sel: u64) {
    let cost = h.cost();
    cov!(h, "net.connect");
    let Some(src) = pick_sock(h, sock_sel) else {
        cov!(h, "net.connect.ebadf");
        h.cpu(120);
        h.seq.error = Some(Errno::EBADF);
        return;
    };
    if !h.try_slab_alloc(1, fault_site!("net.connect.skb")) {
        fail!(h, Errno::ENOMEM, "net.connect.enomem");
        return;
    }
    h.cpu(cost.skb_alloc);
    let port = port_sel % NET_PORT_SPACE;
    let nb = h.k.locks.sock_buckets.len();
    let bucket = h.k.locks.sock_buckets[port as usize % nb];
    if !h.try_lock(bucket, fault_site!("net.connect.bucket")) {
        fail!(h, Errno::EAGAIN, "net.connect.busy");
        return;
    }
    h.cpu(cost.proto_demux);
    let listener =
        h.k.state
            .net
            .lookup_port(port)
            .filter(|&l| h.k.state.net.socks[l].listening && h.k.state.net.socks[l].open);
    let Some(l) = listener else {
        h.unlock(bucket);
        cov!(h, "net.connect.refused");
        h.cpu(150);
        h.seq.error = Some(Errno::EINVAL);
        return;
    };
    let sk = &h.k.state.net.socks[l];
    if sk.backlog.len() as u64 >= sk.backlog_cap {
        h.unlock(bucket);
        cov!(h, "net.connect.backlog_full");
        h.cpu(150);
        h.seq.error = Some(Errno::EAGAIN);
        return;
    }
    // The SYN goes out over a NIC queue (virtio doorbell in guests).
    let q =
        h.k.state
            .net
            .nic
            .queue_for(src as u64 ^ port.rotate_left(17));
    let nql = h.k.locks.nic_queue[q % h.k.locks.nic_queue.len()];
    h.lock(nql);
    h.cpu(100);
    let enq = h.k.state.net.nic.try_enqueue(q);
    h.unlock(nql);
    if !enq {
        h.unlock(bucket);
        cov!(h, "net.connect.ring_full");
        h.cpu(150);
        h.seq.error = Some(Errno::EAGAIN);
        return;
    }
    h.push(KOp::VmExit(VmExitKind::IoKick));
    let net = &mut h.k.state.net;
    net.socks[l].backlog.push(src);
    net.socks[src].backlog_refs += 1;
    h.unlock(bucket);
}

/// accept4(2): pop the accept queue, allocating the connected socket.
pub fn sys_accept(h: &mut HCtx, sock_sel: u64) {
    let cost = h.cost();
    cov!(h, "net.accept");
    let Some(l) = pick_listener(h, sock_sel) else {
        cov!(h, "net.accept.einval");
        h.cpu(120);
        h.seq.error = Some(Errno::EINVAL);
        return;
    };
    if h.k.state.net.socks[l].backlog.is_empty() {
        cov!(h, "net.accept.eagain");
        h.cpu(150);
        h.seq.error = Some(Errno::EAGAIN);
        return;
    }
    if !h.try_slab_alloc(2, fault_site!("net.accept.sock")) {
        fail!(h, Errno::ENOMEM, "net.accept.enomem");
        return;
    }
    h.cpu(cost.sock_create);
    let client = h.k.state.net.socks[l].backlog.remove(0);
    h.k.state.net.socks[client].backlog_refs -= 1;
    let conn = new_sock(h);
    let net = &mut h.k.state.net;
    net.socks[conn].peer = Some(client);
    net.socks[client].peer = Some(conn);
    h.seq.result = h.install_fd(FdKind::Socket { idx: conn });
}

/// Data-path send shared by `sendto(2)` and `write(2)`-on-a-socket:
/// sk_buff allocation, user→kernel copy, protocol demux under the
/// bucket lock, NIC descriptor post plus doorbell, softirq raise, and
/// bounded-rx-buffer / full-ring backpressure (`EAGAIN`).
pub(crate) fn sock_send(h: &mut HCtx, src: usize, bytes: u64, port_sel: Option<u64>) {
    let cost = h.cost();
    cov_bucket!(h, "net.sendto.size", HCtx::size_class(bytes));
    if !h.try_slab_alloc(1 + bytes / 4_096, fault_site!("net.sendto.skb")) {
        fail!(h, Errno::ENOMEM, "net.sendto.enomem");
        return;
    }
    h.cpu(cost.skb_alloc);
    h.mem(cost.copy(bytes));
    // Route: connected peer first, else the explicit destination port.
    let peer = h.k.state.net.socks[src].peer;
    let (dest, bucket_key) = match (peer, port_sel) {
        (Some(p), _) => (Some(p), p as u64),
        (None, Some(raw)) => {
            let port = raw % NET_PORT_SPACE;
            (h.k.state.net.lookup_port(port), port)
        }
        (None, None) => (None, 0),
    };
    let nb = h.k.locks.sock_buckets.len();
    let bucket = h.k.locks.sock_buckets[bucket_key as usize % nb];
    if !h.try_lock(bucket, fault_site!("net.sendto.bucket")) {
        fail!(h, Errno::EAGAIN, "net.sendto.busy");
        return;
    }
    h.cpu(cost.proto_demux);
    if h.inject(fault_site!("net.sendto.nic")) {
        h.unlock(bucket);
        fail!(h, Errno::EIO, "net.sendto.eio");
        return;
    }
    // Post a descriptor on the flow's NIC queue; a full ring sheds load.
    // The packet is transmitted whether or not anyone is listening —
    // delivery failures surface *after* the NIC post, as with real
    // datagram sends.
    let q =
        h.k.state
            .net
            .nic
            .queue_for(src as u64 ^ bucket_key.rotate_left(17));
    let nql = h.k.locks.nic_queue[q % h.k.locks.nic_queue.len()];
    h.lock(nql);
    h.cpu(100);
    let enq = h.k.state.net.nic.try_enqueue(q);
    h.unlock(nql);
    if !enq {
        h.unlock(bucket);
        cov!(h, "net.sendto.ring_full");
        h.cpu(150);
        h.seq.error = Some(Errno::EAGAIN);
        return;
    }
    // Virtio doorbell: one VM exit in guests, ~free on bare metal.
    h.push(KOp::VmExit(VmExitKind::IoKick));
    // Raise NET_RX: shared softirq state, serialized instance-wide.
    let softirq = h.k.locks.softirq;
    h.lock(softirq);
    h.cpu(60);
    h.unlock(softirq);
    // Shared-stack extra hops (netfilter/conntrack on container hosts).
    let extra = h.k.state.net.stack_extra_ns;
    if extra > 0 {
        cov!(h, "net.stack.shared");
        h.cpu(extra);
    }
    let dest = dest.filter(|&d| h.k.state.net.socks[d].open);
    let Some(dest) = dest else {
        h.unlock(bucket);
        cov!(h, "net.sendto.noroute");
        h.cpu(120);
        h.seq.error = Some(Errno::EINVAL);
        return;
    };
    // Bounded receive buffer: backpressure instead of loss.
    if h.k.state.net.socks[dest].rx_bytes + bytes > cost.sock_buf_bytes {
        h.unlock(bucket);
        cov!(h, "net.sendto.eagain");
        h.cpu(150);
        h.seq.error = Some(Errno::EAGAIN);
        return;
    }
    let net = &mut h.k.state.net;
    net.socks[dest].rx_bytes += bytes;
    net.sent_bytes += bytes;
    h.unlock(bucket);
    h.seq.result = bytes;
}

/// Data-path receive shared by `recvfrom(2)` and `read(2)`-on-a-socket.
pub(crate) fn sock_recv(h: &mut HCtx, src: usize, want: u64) {
    let cost = h.cost();
    let rx = h.k.state.net.socks[src].rx_bytes;
    if rx == 0 {
        cov!(h, "net.recvfrom.eagain");
        h.cpu(cost.proto_demux / 2);
        h.seq.error = Some(Errno::EAGAIN);
        return;
    }
    let nb = h.k.locks.sock_buckets.len();
    let bucket = h.k.locks.sock_buckets[src % nb];
    if !h.try_lock(bucket, fault_site!("net.recvfrom.bucket")) {
        fail!(h, Errno::EAGAIN, "net.recvfrom.busy");
        return;
    }
    let take = rx.min(want);
    h.cpu(cost.proto_demux);
    h.mem(cost.copy(take));
    let extra = h.k.state.net.stack_extra_ns;
    if extra > 0 {
        h.cpu(extra);
    }
    let net = &mut h.k.state.net;
    net.socks[src].rx_bytes -= take;
    net.recv_bytes += take;
    h.unlock(bucket);
    cov_bucket!(h, "net.recvfrom.size", HCtx::size_class(take));
    h.seq.result = take;
}

/// sendto(2).
pub fn sys_sendto(h: &mut HCtx, sock_sel: u64, len: u64, port_sel: u64) {
    cov!(h, "net.sendto");
    let Some(src) = pick_sock(h, sock_sel) else {
        cov!(h, "net.sendto.ebadf");
        h.cpu(120);
        h.seq.error = Some(Errno::EBADF);
        return;
    };
    sock_send(h, src, msg_bytes(len), Some(port_sel));
}

/// recvfrom(2).
pub fn sys_recvfrom(h: &mut HCtx, sock_sel: u64, len: u64) {
    cov!(h, "net.recvfrom");
    let Some(src) = pick_sock(h, sock_sel) else {
        cov!(h, "net.recvfrom.ebadf");
        h.cpu(120);
        h.seq.error = Some(Errno::EBADF);
        return;
    };
    sock_recv(h, src, msg_bytes(len));
}

/// shutdown(2): release the port, unlink the peer, flush buffered
/// payload (accounted, never silently lost) and retire the sock through
/// an RCU grace period like `sock_put`.
pub fn sys_shutdown_sock(h: &mut HCtx, sock_sel: u64) {
    let cost = h.cost();
    cov!(h, "net.shutdown");
    let Some(src) = pick_sock(h, sock_sel) else {
        cov!(h, "net.shutdown.ebadf");
        h.cpu(120);
        h.seq.error = Some(Errno::EBADF);
        return;
    };
    let nb = h.k.locks.sock_buckets.len();
    let bucket = h.k.locks.sock_buckets[src % nb];
    if !h.try_lock(bucket, fault_site!("net.shutdown.bucket")) {
        fail!(h, Errno::EAGAIN, "net.shutdown.busy");
        return;
    }
    h.cpu(cost.proto_demux);
    let flushed = release_sock_locked(h, src);
    h.unlock(bucket);
    if flushed > 0 {
        cov!(h, "net.shutdown.flush");
    }
    // The fd still references the sock: its table slot is reclaimed only
    // when the descriptor dies (close / process exit).
    h.push(KOp::RcuSync);
}

/// epoll_create1(2).
pub fn sys_epoll_create(h: &mut HCtx) {
    let cost = h.cost();
    cov!(h, "net.epoll_create");
    if !h.try_slab_alloc(1, fault_site!("net.epoll.ctx")) {
        fail!(h, Errno::ENOMEM, "net.epoll_create.enomem");
        return;
    }
    h.cpu(cost.sock_create / 2);
    h.seq.result = h.install_fd(FdKind::Epoll);
}

/// epoll_wait(2): readiness scan over the slot's descriptors (we model
/// the ready-list walk as a bounded scan; cost scales with fd count).
pub fn sys_epoll_wait(h: &mut HCtx, ep_sel: u64, maxev: u64) {
    cov!(h, "net.epoll_wait");
    let fds = &h.k.state.slots[h.slot].fds;
    let has_epoll = !fds.is_empty() && {
        let start = (ep_sel as usize) % fds.len();
        (0..fds.len())
            .map(|i| (start + i) % fds.len())
            .any(|i| matches!(fds[i].kind, FdKind::Epoll))
    };
    if !has_epoll {
        cov!(h, "net.epoll_wait.ebadf");
        h.cpu(120);
        h.seq.error = Some(Errno::EBADF);
        return;
    }
    let maxev = (maxev % 64).max(1);
    let socks = &h.k.state.net.socks;
    let fds = &h.k.state.slots[h.slot].fds;
    let scanned = fds.len() as u64;
    let ready = fds
        .iter()
        .filter(|fd| match fd.kind {
            FdKind::Socket { idx } => socks[idx].open && socks[idx].rx_bytes > 0,
            _ => false,
        })
        .count() as u64;
    let ready = ready.min(maxev);
    h.cpu(80 * scanned.max(1));
    cov_bucket!(h, "net.epoll_wait.ready", HCtx::size_class(ready + 1));
    h.seq.result = ready;
}
