//! The one accept loop the proxy and every testbed server run.
//!
//! The acceptor blocks in `accept` and re-checks its stop flag after
//! every connection it returns. Dropping the handle sets the flag, then
//! wakes the acceptor with one loopback connect. Whose connection wakes
//! it does not matter: if a client's is accepted first, the acceptor
//! still sees the flag and leaves. An accept error backs off 1 ms and
//! goes on, so the listener and its port stay bound until the wake-up.
//! (`csaw-dbserver` runs the same discipline.)

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// A running accept loop; dropping it stops the loop and joins it.
#[derive(Debug)]
pub(crate) struct Acceptor {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl Acceptor {
    /// Accept on `listener` from a background thread, serving each
    /// connection on a thread of its own.
    pub(crate) fn spawn<F>(listener: TcpListener, serve: F) -> std::io::Result<Acceptor>
    where
        F: Fn(TcpStream) + Send + Sync + 'static,
    {
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let serve = Arc::new(serve);
        let handle = std::thread::spawn(move || loop {
            let accepted = listener.accept();
            if stop2.load(Ordering::SeqCst) {
                break;
            }
            match accepted {
                Ok((stream, _)) => {
                    let serve = Arc::clone(&serve);
                    std::thread::spawn(move || serve(stream));
                }
                // Out of descriptors, most likely: closing connections
                // frees some, spinning on the error does not.
                Err(_) => std::thread::sleep(Duration::from_millis(1)),
            }
        });
        Ok(Acceptor {
            addr,
            stop,
            handle: Some(handle),
        })
    }
}

impl Drop for Acceptor {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}
