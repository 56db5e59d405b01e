//! The wire codec shared by the server, client and router: one
//! serializer for the typed protocol of [`crate::proto`], writing
//! newline-delimited JSON text.
//!
//! Every protocol message is one JSON document on one line, terminated
//! by `\n` — easy to drive from `nc`. Lines are capped at
//! `MAX_FRAME_BYTES` so a newline-free stream cannot force an
//! unbounded allocation. A message whose first byte is `0x00` — the
//! marker of the length-prefixed binary frames this protocol once also
//! spoke — is refused as a transport error that closes the connection:
//! scanned as text, the frame's length bytes would become part of the
//! document.
//!
//! The typed layer sits directly on top: [`write_request`]/
//! [`decode_request`] and [`read_response`] move [`Request`]s and
//! [`Response`]s through **one codec**; responses are written by the
//! connection layer ([`crate::conn`]).

use std::io::{BufRead, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpStream};
use std::time::Duration;

use crate::error::ServiceError;
use crate::json::{Json, JsonText};
use crate::proto::{DecodeError, Request, Response};

/// How a message is framed on the wire. There is exactly one framing —
/// newline-delimited JSON text — and nothing branches on it; the type
/// survives only because [`write_message`] and [`read_message`] are
/// pinned, with it in their signatures, by the frozen `benchmark/`
/// harness (as [`crate::proto::Dialect`] is).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Encoding {
    /// Newline-delimited JSON text.
    Text,
}

/// Lift socket-deadline failures into the typed
/// [`ServiceError::Timeout`], so callers can tell a stalled peer from a
/// dead one without string-matching. With
/// `SO_RCVTIMEO`/`SO_SNDTIMEO` armed, the OS reports an expired
/// deadline as `WouldBlock` (Unix) or `TimedOut` (Windows) — either
/// may surface mid-message, including after a partial write that
/// `write_all` had already begun.
pub(crate) fn timeout_aware(e: std::io::Error, context: &'static str) -> ServiceError {
    match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => {
            ServiceError::timeout(format!("socket {context} exceeded its configured timeout"))
        }
        _ => ServiceError::Io(e),
    }
}

/// Upper bound on one text message, defending against a peer that
/// never sends a newline.
pub(crate) const MAX_FRAME_BYTES: usize = 64 * 1024 * 1024;

/// Write one message and flush: payload and terminator reach `writer`
/// as **one** `write_all`. On a socket that is one segment train per
/// message; split writes would park the tail behind Nagle's algorithm
/// and the peer's delayed ACK (≈ 40 ms on Linux).
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_message(
    writer: &mut impl Write,
    payload: &str,
    _encoding: Encoding,
) -> Result<(), ServiceError> {
    let mut frame = String::with_capacity(payload.len() + 1);
    frame.push_str(payload);
    frame.push('\n');
    write_line(writer, &frame)
}

/// [`write_message`] for a message `encode` writes through a [`JsonText`]:
/// the line is encoded straight into `frame` (cleared first), so a
/// long-lived writer — each connection's write half in
/// [`crate::conn`] — builds no tree and pays for the buffer once, not
/// per message.
///
/// # Errors
///
/// As [`write_message`].
pub fn write_encoded(
    writer: &mut impl Write,
    frame: &mut String,
    encode: impl FnOnce(&mut JsonText<'_>),
) -> Result<(), ServiceError> {
    frame.clear();
    append_line(frame, encode);
    write_line(writer, frame)
}

/// Append a message to `frame` as one newline-terminated line, after
/// the lines already there: a connection's reader gathers a burst's
/// responses this way and writes them together.
pub(crate) fn append_line(frame: &mut String, encode: impl FnOnce(&mut JsonText<'_>)) {
    encode(&mut JsonText::new(frame));
    frame.push('\n');
}

/// Write one terminated `frame` as one `write_all`, then flush.
fn write_line(writer: &mut impl Write, frame: &str) -> Result<(), ServiceError> {
    writer
        .write_all(frame.as_bytes())
        .and_then(|()| writer.flush())
        .map_err(|e| timeout_aware(e, "write"))
}

/// Set a protocol socket's options — the only place they are set, for
/// every socket either side accepts or dials: Nagle's algorithm off
/// (messages are written whole, so coalescing could only delay them)
/// and the caller's read/write deadlines (`None`: block forever), which
/// [`read_message`]/[`write_message`] surface as the typed
/// [`ServiceError::Timeout`] when they expire.
///
/// # Errors
///
/// Propagates the OS's refusal of an option.
pub(crate) fn configure_socket(
    stream: &TcpStream,
    read_timeout: Option<Duration>,
    write_timeout: Option<Duration>,
) -> Result<(), ServiceError> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(read_timeout)?;
    stream.set_write_timeout(write_timeout)?;
    Ok(())
}

/// Unblock a listener's `accept` after its shutdown flag is set, by
/// connecting to it once and hanging up. A wildcard bind address
/// (`0.0.0.0` / `::`) is not connectable on every platform, so it is
/// poked via loopback instead; the attempt gives up after 200 ms and
/// its outcome is ignored.
pub(crate) fn wake_listener(mut addr: SocketAddr) {
    if addr.ip().is_unspecified() {
        let loopback: IpAddr = if addr.is_ipv4() {
            Ipv4Addr::LOCALHOST.into()
        } else {
            Ipv6Addr::LOCALHOST.into()
        };
        addr.set_ip(loopback);
    }
    let _ = TcpStream::connect_timeout(&addr, Duration::from_millis(200));
}

/// Read one message. Returns `None` on a clean end-of-stream; blank
/// lines are skipped. The [`Encoding`] is always [`Encoding::Text`].
///
/// # Errors
///
/// Propagates I/O failures; rejects oversized and non-UTF-8 lines and
/// a leading `0x00` (a binary frame).
pub fn read_message(reader: &mut impl BufRead) -> Result<Option<(String, Encoding)>, ServiceError> {
    Ok(read_line(reader)?.map(|text| (text, Encoding::Text)))
}

/// Whether `buffered` — what a reader's buffer holds past the message
/// it just returned — holds a whole next message, so that the next
/// [`read_message`] returns without reading the socket. A line that
/// message would skip (blank, or only whitespace) does not count; one
/// it would refuse (not UTF-8, or a leading `0x00`) does, since the
/// refusal does not read either.
pub(crate) fn holds_message(buffered: &[u8]) -> bool {
    let Some(end) = buffered.iter().rposition(|&b| b == b'\n') else {
        return false;
    };
    buffered[..end]
        .split(|&b| b == b'\n')
        .any(|line| std::str::from_utf8(line).map_or(true, |text| !text.trim().is_empty()))
}

/// [`read_message`] without the vestigial [`Encoding`].
fn read_line(reader: &mut impl BufRead) -> Result<Option<String>, ServiceError> {
    loop {
        let first = {
            let buf = reader.fill_buf().map_err(|e| timeout_aware(e, "read"))?;
            match buf.first() {
                Some(&b) => b,
                None => return Ok(None), // clean EOF between messages
            }
        };
        match first {
            0x00 => {
                return Err(ServiceError::protocol(
                    "binary frames (a leading 0x00 byte) were removed from the protocol; \
                     send newline-delimited JSON text",
                ))
            }
            b'\n' | b'\r' => {
                reader.consume(1);
            }
            _ => {
                // Accumulate one line under the size cap: without it, a
                // newline-free stream would grow the buffer without
                // bound.
                let mut line: Vec<u8> = Vec::new();
                loop {
                    let buf = reader.fill_buf().map_err(|e| timeout_aware(e, "read"))?;
                    if buf.is_empty() {
                        break; // EOF terminates the final line
                    }
                    match buf.iter().position(|&b| b == b'\n') {
                        Some(pos) => {
                            line.extend_from_slice(&buf[..pos]);
                            reader.consume(pos + 1);
                            break;
                        }
                        None => {
                            line.extend_from_slice(buf);
                            let n = buf.len();
                            reader.consume(n);
                        }
                    }
                    if line.len() > MAX_FRAME_BYTES {
                        return Err(ServiceError::protocol(format!(
                            "text message exceeds the {MAX_FRAME_BYTES}-byte cap"
                        )));
                    }
                }
                if line.len() > MAX_FRAME_BYTES {
                    return Err(ServiceError::protocol(format!(
                        "text message exceeds the {MAX_FRAME_BYTES}-byte cap"
                    )));
                }
                let text = String::from_utf8(line)
                    .map_err(|_| ServiceError::protocol("text message is not UTF-8"))?;
                // The line is handed over as is unless there is
                // whitespace to strip — the common case copies nothing.
                let trimmed = text.trim();
                if trimmed.len() == text.len() {
                    return Ok(Some(text));
                }
                if !trimmed.is_empty() {
                    return Ok(Some(trimmed.to_owned()));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Typed layer: proto messages through the one codec
// ---------------------------------------------------------------------

/// Write one typed [`Request`].
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_request(writer: &mut impl Write, request: &Request) -> Result<(), ServiceError> {
    write_encoded(writer, &mut String::new(), |t| request.encode(t))
}

/// Parse and decode one request payload (a line [`read_message`]
/// returned).
///
/// # Errors
///
/// A payload that is not even JSON is a [`DecodeError`] like any other
/// malformed request, so a server can answer every failure with a
/// typed error instead of dropping the connection.
pub fn decode_request(payload: &str) -> Result<Request, DecodeError> {
    let parsed = Json::parse(payload).map_err(|e| DecodeError {
        id: None,
        message: e.to_string(),
    })?;
    Request::decode(&parsed).map(|(request, _)| request)
}

/// Read and decode one response. Returns `None` on a clean
/// end-of-stream.
///
/// # Errors
///
/// Fails on I/O errors, framing errors, or responses that do not parse
/// as the typed protocol.
pub fn read_response(reader: &mut impl BufRead) -> Result<Option<Response>, ServiceError> {
    match read_line(reader)? {
        Some(payload) => Ok(Some(Response::decode(&Json::parse(&payload)?)?)),
        None => Ok(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    /// A socket whose read deadline has expired.
    struct Stalled;

    impl std::io::Read for Stalled {
        fn read(&mut self, _buf: &mut [u8]) -> std::io::Result<usize> {
            Err(std::io::Error::from(std::io::ErrorKind::WouldBlock))
        }
    }

    #[test]
    fn text_messages_round_trip_and_skip_blank_lines() {
        let mut out = Vec::new();
        write_message(&mut out, r#"{"id":1}"#, Encoding::Text).unwrap();
        out.extend_from_slice(b"\r\n\n");
        write_message(&mut out, r#"{"id":2}"#, Encoding::Text).unwrap();
        out.extend_from_slice(b" {\"id\":3}\r\n");
        let mut reader = BufReader::new(&out[..]);
        for id in 1..=3 {
            assert_eq!(
                read_message(&mut reader).unwrap(),
                Some((format!(r#"{{"id":{id}}}"#), Encoding::Text))
            );
        }
        assert_eq!(read_message(&mut reader).unwrap(), None);
    }

    /// `holds_message` says of a buffer exactly whether `read_message`
    /// answers from it without reading the socket: a reader that holds
    /// its responses while the next message is buffered must never
    /// block in a read holding them.
    #[test]
    fn a_buffered_message_is_read_without_touching_the_socket() {
        let lines = [
            "",
            "{}",
            "{}\n",
            "\n",
            "\r\n \t\n",
            "\u{3000}\n",
            "\n {\"id\":1}\r\n",
            "\0\n",
        ];
        for buffered in lines.iter().map(|l| l.as_bytes()).chain([&b"\xff\n"[..]]) {
            let read = read_message(&mut BufReader::new(std::io::Read::chain(buffered, Stalled)));
            let stalled = matches!(read, Err(ServiceError::Timeout(_)));
            assert_eq!(holds_message(buffered), !stalled, "{buffered:?}: {read:?}");
        }
    }

    #[test]
    fn endless_unterminated_text_lines_are_rejected_not_accumulated() {
        // A newline-free stream longer than the cap must error instead
        // of growing the line buffer without bound.
        struct EndlessAs;
        impl std::io::Read for EndlessAs {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                buf.fill(b'a');
                Ok(buf.len())
            }
        }
        let mut reader = BufReader::new(EndlessAs);
        let err = read_message(&mut reader).unwrap_err();
        assert!(err.to_string().contains("cap"), "{err}");
    }

    #[test]
    fn socket_deadline_errors_surface_as_typed_timeouts() {
        // A reader whose deadline expires (SO_RCVTIMEO → WouldBlock)
        // must yield the typed Timeout, not an opaque Io error.
        let err = read_message(&mut BufReader::new(Stalled)).unwrap_err();
        assert!(matches!(err, ServiceError::Timeout(_)), "{err}");

        // Same for a writer that times out after a partial write.
        struct PartialThenStall {
            accepted: usize,
        }
        impl Write for PartialThenStall {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                if self.accepted == 0 {
                    return Err(std::io::Error::from(std::io::ErrorKind::TimedOut));
                }
                let n = buf.len().min(self.accepted);
                self.accepted -= n;
                Ok(n)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut w = PartialThenStall { accepted: 3 };
        let err = write_message(&mut w, r#"{"id":12345}"#, Encoding::Text).unwrap_err();
        assert!(matches!(err, ServiceError::Timeout(_)), "{err}");
    }

    #[test]
    fn every_frame_reaches_the_writer_as_exactly_one_write() {
        // Two writes per frame is the Nagle/delayed-ACK stall: the
        // terminator would sit behind the unacknowledged payload.
        #[derive(Default)]
        struct Counting {
            writes: usize,
            bytes: Vec<u8>,
        }
        impl Write for Counting {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.writes += 1;
                self.bytes.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        // Around the 8 KiB default `BufWriter` capacity, where the
        // split used to begin, and far beyond it.
        for len in [10, 8191, 8192, 8193, 1 << 20] {
            let payload = format!("\"{}\"", "x".repeat(len - 2));
            assert_eq!(payload.len(), len);
            let mut out = Counting::default();
            write_message(&mut out, &payload, Encoding::Text).unwrap();
            assert_eq!(out.writes, 1, "{len} B");
            assert_eq!(
                read_message(&mut BufReader::new(&out.bytes[..])).unwrap(),
                Some((payload, Encoding::Text))
            );
        }
    }

    #[test]
    fn a_leading_nul_byte_is_refused_naming_the_removal() {
        let frame = [0x00, 0, 0, 0, 2, b'{', b'}'];
        let err = read_message(&mut BufReader::new(&frame[..])).unwrap_err();
        assert!(err.to_string().contains("binary frames"), "{err}");
    }

    #[test]
    fn non_utf8_frame_payloads_are_rejected() {
        let line = b"{\"s\":\"\xff\xfe\"}\n";
        let err = read_message(&mut BufReader::new(&line[..])).unwrap_err();
        assert!(err.to_string().contains("UTF-8"), "{err}");
    }
}
