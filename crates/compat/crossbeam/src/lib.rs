//! Offline stub for `crossbeam`.
//!
//! Implements the small slice of `crossbeam::channel` the workspace uses
//! (the ingest pipeline's bounded work and done queues) on top of
//! `std::sync::mpsc::sync_channel`. Single-consumer is sufficient: the
//! pipeline's partition workers share the work receiver behind a mutex.

/// Multi-producer channels (subset of `crossbeam::channel`).
pub mod channel {
    /// Error returned by [`Sender::send`] when the receiver hung up.
    #[derive(Debug, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    /// Error returned by [`Sender::try_send`].
    #[derive(Debug, PartialEq, Eq)]
    pub enum TrySendError<T> {
        /// The channel is at capacity; the message is handed back.
        Full(T),
        /// The receiver hung up; the message is handed back.
        Disconnected(T),
    }

    /// Error returned by [`Receiver::recv`] when all senders hung up.
    #[derive(Debug, PartialEq, Eq)]
    pub struct RecvError;

    /// Sending half of a bounded channel; clonable.
    pub struct Sender<T>(std::sync::mpsc::SyncSender<T>);

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            Sender(self.0.clone())
        }
    }

    impl<T> Sender<T> {
        /// Blocks until the message is enqueued or the receiver is gone.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            self.0.send(value).map_err(|e| SendError(e.0))
        }

        /// Enqueues without blocking, reporting a full queue instead of
        /// waiting (used for backpressure accounting: callers count
        /// [`TrySendError::Full`] before falling back to a blocking send).
        pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
            self.0.try_send(value).map_err(|e| match e {
                std::sync::mpsc::TrySendError::Full(v) => TrySendError::Full(v),
                std::sync::mpsc::TrySendError::Disconnected(v) => TrySendError::Disconnected(v),
            })
        }
    }

    /// Receiving half of a bounded channel.
    pub struct Receiver<T>(std::sync::mpsc::Receiver<T>);

    impl<T> Receiver<T> {
        /// Blocks until a message arrives or all senders are gone.
        pub fn recv(&self) -> Result<T, RecvError> {
            self.0.recv().map_err(|_| RecvError)
        }

        /// Returns a pending message without blocking, if any.
        pub fn try_recv(&self) -> Result<T, RecvError> {
            self.0.try_recv().map_err(|_| RecvError)
        }
    }

    /// A bounded FIFO channel with capacity `cap` (min 1: a rendezvous
    /// channel is never what the executors want).
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = std::sync::mpsc::sync_channel(cap.max(1));
        (Sender(tx), Receiver(rx))
    }
}

#[cfg(test)]
mod tests {
    use super::channel;

    #[test]
    fn bounded_send_recv_across_threads() {
        let (tx, rx) = channel::bounded::<u32>(2);
        let tx2 = tx.clone();
        let h = std::thread::spawn(move || {
            tx.send(1).unwrap();
            tx2.send(2).unwrap();
        });
        h.join().unwrap();
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        assert!(rx.recv().is_err(), "senders dropped");
    }

    #[test]
    fn send_to_dropped_receiver_errors() {
        let (tx, rx) = channel::bounded::<u32>(1);
        drop(rx);
        assert_eq!(tx.send(7), Err(channel::SendError(7)));
    }

    #[test]
    fn try_send_reports_full_and_disconnected() {
        let (tx, rx) = channel::bounded::<u32>(1);
        assert_eq!(tx.try_send(1), Ok(()));
        assert_eq!(tx.try_send(2), Err(channel::TrySendError::Full(2)));
        assert_eq!(rx.recv(), Ok(1));
        drop(rx);
        assert_eq!(tx.try_send(3), Err(channel::TrySendError::Disconnected(3)));
    }
}
