//! The one accept/drain loop every loopback server in the workspace
//! runs: `csaw-dbserver`, the real-socket proxy, and the proxy
//! testbed's origins and middlebox. A caller supplies a name, a write
//! timeout and a per-connection handler; [`serve`] does the rest.
//!
//! ## Threads, not polling
//!
//! The workspace is hermetic (no `mio`, no `libc`), and the one thing
//! `std::net` does without polling is block. So nothing here sleeps or
//! spins while idle:
//!
//! 1. One **acceptor** thread, named after the caller, blocks in
//!    `accept`.
//! 2. It spawns one **connection** thread per accepted socket, named
//!    `<name>-conn`, which runs the handler until it returns. Spawned
//!    from the acceptor, a connection thread inherits the acceptor's
//!    CPU mask (a benchmark pins the acceptor by name), and it runs in
//!    the observability scope of whoever called [`serve`]: metrics and
//!    spans the handler emits land in the spawner's context, not the
//!    process default.
//!
//! Every accepted socket has `TCP_NODELAY` (an answer is one small
//! write that must not wait for an ack) and the caller's write timeout:
//! a peer that stops reading fails the handler's next write instead of
//! pinning its thread, and a stop or drain with it, forever. After the
//! handler returns, the socket is shut down in both directions: the
//! acceptor holds a clone of it, so dropping the handler's half would
//! not close it.
//!
//! ## Stop and graceful drain
//!
//! Dropping the [`Server`] stops it: the acceptor stops accepting,
//! shuts down both halves of every open connection, so a handler
//! blocked reading its peer sees end-of-stream, and joins every thread.
//! [`Server::drain`] shuts down only the read half: bytes a connection
//! had already received are still served and their answers written,
//! then the handler sees end-of-stream. A peer whose request had not
//! fully arrived sees a closed connection — an explicit error on its
//! side, never a silent drop.
//!
//! Both set their flag *first* and then wake the blocked acceptor with
//! a loopback connect; the acceptor re-checks the flag after *every*
//! `accept`. So it does not matter whose connection wakes it: if a
//! client's connect is accepted in place of the wake-up, the acceptor
//! still sees the flag and leaves, and the unaccepted wake-up is reset
//! with the listener. An accept error backs off 1 ms and goes on, so
//! the listener and its port stay bound until the wake-up.

use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

/// A running [`serve`] loop. Dropping it stops the server; call
/// [`Server::drain`] first for a graceful shutdown.
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    /// How the handle asked open connections to end.
    asked: Arc<OnceLock<Shutdown>>,
    acceptor: Option<JoinHandle<()>>,
}

impl Server {
    /// The loopback address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful drain: stop accepting, let every connection finish
    /// what it had received, and join every thread.
    pub fn drain(mut self) {
        self.shut_down(Shutdown::Read);
    }

    /// Flag first, then wake: the acceptor is blocked in `accept` and
    /// re-checks the flag after every connection, whoever sent it.
    fn shut_down(&mut self, how: Shutdown) {
        let Some(acceptor) = self.acceptor.take() else {
            return;
        };
        let _ = self.asked.set(how);
        let _ = TcpStream::connect(self.addr);
        let _ = acceptor.join();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shut_down(Shutdown::Both);
    }
}

/// Bind an ephemeral loopback port and run `handler` on every
/// connection to it, each on a thread of its own, until the returned
/// [`Server`] is dropped or drained. `name` names the acceptor thread;
/// `write_timeout` bounds every write the handler makes.
pub fn serve<F>(name: &str, write_timeout: Duration, handler: F) -> io::Result<Server>
where
    F: Fn(&mut TcpStream) + Send + Sync + 'static,
{
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let asked = Arc::new(OnceLock::new());
    let ctx = csaw_obs::current();
    let conn_name = format!("{name}-conn");
    let acceptor = std::thread::Builder::new().name(name.into()).spawn({
        let asked = Arc::clone(&asked);
        move || {
            let _scope = csaw_obs::install(ctx);
            accept_loop(
                listener,
                &conn_name,
                write_timeout,
                Arc::new(handler),
                &asked,
            )
        }
    })?;
    Ok(Server {
        addr,
        asked,
        acceptor: Some(acceptor),
    })
}

/// Accept until asked to leave, one thread per connection; then close
/// the listener, end every connection as asked and join its thread.
fn accept_loop(
    listener: TcpListener,
    conn_name: &str,
    write_timeout: Duration,
    handler: Arc<dyn Fn(&mut TcpStream) + Send + Sync>,
    asked: &OnceLock<Shutdown>,
) {
    // The acceptor's half of each live connection (to shut it down
    // from here) and the thread serving the other half.
    let mut conns: Vec<(TcpStream, JoinHandle<()>)> = Vec::new();
    let how = loop {
        let accepted = listener.accept();
        if let Some(&how) = asked.get() {
            break how;
        }
        conns.retain(|(_, thread)| !thread.is_finished());
        let Ok((mut stream, _)) = accepted else {
            // Out of descriptors, most likely: closing connections
            // frees some, spinning on the error does not.
            std::thread::sleep(Duration::from_millis(1));
            continue;
        };
        let _ = stream.set_nodelay(true);
        let (Ok(()), Ok(ours)) = (
            stream.set_write_timeout(Some(write_timeout)),
            stream.try_clone(),
        ) else {
            continue;
        };
        let spawned = std::thread::Builder::new().name(conn_name.into()).spawn({
            let (handler, ctx) = (Arc::clone(&handler), csaw_obs::current());
            move || {
                let _scope = csaw_obs::install(ctx);
                handler(&mut stream);
                let _ = stream.shutdown(Shutdown::Both);
            }
        });
        if let Ok(thread) = spawned {
            conns.push((ours, thread));
        }
    };
    drop(listener);
    for (ours, _) in &conns {
        let _ = ours.shutdown(how);
    }
    for (_, thread) in conns {
        let _ = thread.join();
    }
}
