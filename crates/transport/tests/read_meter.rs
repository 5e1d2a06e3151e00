//! `wire_syscalls()` counts reads of the real socket and nothing else: a
//! frame served from the read-ahead, and a zero-deadline probe that finds
//! nothing there, leave the read count unchanged. The meter is
//! process-wide, so this check lives alone in its own test binary.

use std::time::Duration;

use nrmi_transport::{
    wire_syscalls, Frame, TcpListenerTransport, TcpTransport, Transport, TransportError,
};

#[test]
fn buffered_frames_and_empty_probes_issue_no_reads() {
    let listener = TcpListenerTransport::bind("127.0.0.1:0").expect("bind");
    let mut client = TcpTransport::connect(listener.local_addr().expect("addr")).expect("connect");
    let mut server = listener.accept().expect("accept");
    let train = [
        Frame::CountReply(1),
        Frame::CountReply(2),
        Frame::CountReply(3),
    ];
    client
        .send_batch(&train.iter().collect::<Vec<_>>())
        .expect("send train");

    // The whole train is in the kernel before the first read, so that
    // one read pulls all of it into the read-ahead.
    let (_, before) = wire_syscalls();
    assert_eq!(server.recv().expect("first"), Frame::CountReply(1));
    let (_, after_first) = wire_syscalls();
    assert_eq!(after_first - before, 1, "one read for the train");

    assert_eq!(
        server.recv_timeout(Duration::ZERO).expect("buffered"),
        Frame::CountReply(2)
    );
    assert_eq!(server.recv().expect("buffered"), Frame::CountReply(3));
    let probe = server.recv_timeout(Duration::ZERO);
    assert!(matches!(probe, Err(TransportError::Timeout)), "{probe:?}");
    assert_eq!(
        wire_syscalls().1,
        after_first,
        "buffered hits and an empty zero-deadline probe are not reads"
    );
}
