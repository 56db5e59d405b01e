//! The wire codec shared by the server and client: one serializer for
//! the typed protocol of [`crate::proto`], writing either
//! newline-delimited JSON text or length-prefixed binary frames.
//!
//! Every protocol message is a JSON document moving over TCP in one of
//! two [`Encoding`]s, distinguishable by the first byte:
//!
//! * [`Encoding::Text`]: the document on one line, terminated by `\n`
//!   — easy to drive from `nc`. A JSON document can never start with
//!   byte `0x00`, so text messages never collide with the frame marker.
//! * [`Encoding::Binary`]: marker byte `0x00`, a big-endian `u32`
//!   payload length, then exactly that many bytes of JSON. Frames carry
//!   large inline networks without line-scanning overhead and are
//!   capped at [`MAX_FRAME_BYTES`] so an untrusted length header cannot
//!   force an unbounded allocation.
//!
//! Either side may switch encodings per message; a response uses the
//! encoding of the request it answers. The typed layer sits directly on
//! top: [`write_request`]/[`read_request`] and
//! [`write_response`]/[`read_response`] move [`Request`]s and
//! [`Response`]s through **one codec** — the payload bytes are
//! identical in both encodings, only the framing differs.

use std::io::{BufRead, Write};
use std::net::TcpStream;
use std::time::Duration;

use crate::error::ServiceError;
use crate::json::Json;
use crate::proto::{DecodeError, Request, Response};

/// How a message is framed on the wire. The JSON payload is the same in
/// both; auto-detected per message on read from the first byte.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Encoding {
    /// Newline-delimited JSON text (the default).
    #[default]
    Text,
    /// `0x00`-marked, length-prefixed binary frames.
    Binary,
}

impl Encoding {
    /// A stable lowercase name, used to label per-encoding metrics
    /// (e.g. the server's `frames_text_total` / `frames_binary_total`
    /// counters).
    pub fn label(&self) -> &'static str {
        match self {
            Encoding::Text => "text",
            Encoding::Binary => "binary",
        }
    }
}

/// First byte of a binary frame. `0x00` can never begin a JSON text
/// message.
pub const FRAME_MARKER: u8 = 0x00;

/// Lift socket-deadline failures into the typed
/// [`ServiceError::Timeout`], so retry policies can tell a stalled
/// peer from a dead one without string-matching. With
/// `SO_RCVTIMEO`/`SO_SNDTIMEO` armed, the OS reports an expired
/// deadline as `WouldBlock` (Unix) or `TimedOut` (Windows) — either
/// may surface mid-message, including after a partial write that
/// `write_all` had already begun.
fn timeout_aware(e: std::io::Error, context: &'static str) -> ServiceError {
    match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => {
            ServiceError::timeout(format!("socket {context} exceeded its configured timeout"))
        }
        _ => ServiceError::Io(e),
    }
}

/// Upper bound on a binary frame's payload, defending against hostile
/// length headers.
pub const MAX_FRAME_BYTES: usize = 64 * 1024 * 1024;

/// Write one message in the chosen encoding and flush: the whole frame
/// — marker, length, payload, terminator — reaches `writer` as **one**
/// `write_all`. On a socket that is one segment train per frame; split
/// writes would park the tail behind Nagle's algorithm and the peer's
/// delayed ACK (≈ 40 ms on Linux).
///
/// # Errors
///
/// Propagates I/O failures; rejects payloads beyond [`MAX_FRAME_BYTES`]
/// in binary mode.
pub fn write_message(
    writer: &mut impl Write,
    payload: &str,
    encoding: Encoding,
) -> Result<(), ServiceError> {
    write_message_reusing(writer, &mut Vec::new(), payload, encoding)
}

/// [`write_message`] assembling the frame in a caller-owned buffer, so
/// a long-lived writer (the server's per-connection writer thread) pays
/// for the frame allocation once, not per response.
///
/// # Errors
///
/// As [`write_message`].
pub fn write_message_reusing(
    writer: &mut impl Write,
    frame: &mut Vec<u8>,
    payload: &str,
    encoding: Encoding,
) -> Result<(), ServiceError> {
    frame.clear();
    match encoding {
        Encoding::Binary => {
            if payload.len() > MAX_FRAME_BYTES {
                return Err(ServiceError::protocol(format!(
                    "frame payload of {} bytes exceeds the {MAX_FRAME_BYTES}-byte cap",
                    payload.len()
                )));
            }
            frame.reserve(payload.len() + 5);
            frame.push(FRAME_MARKER);
            frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
            frame.extend_from_slice(payload.as_bytes());
        }
        Encoding::Text => {
            frame.reserve(payload.len() + 1);
            frame.extend_from_slice(payload.as_bytes());
            frame.push(b'\n');
        }
    }
    writer
        .write_all(frame)
        .and_then(|()| writer.flush())
        .map_err(|e| timeout_aware(e, "write"))
}

/// Set a protocol socket's options — the only place they are set, for
/// every socket either side accepts or dials: Nagle's algorithm off
/// (frames are written whole, so coalescing could only delay them) and
/// the caller's read/write deadlines (`None`: block forever), which
/// [`read_message`]/[`write_message`] surface as the typed
/// [`ServiceError::Timeout`] when they expire.
///
/// # Errors
///
/// Propagates the OS's refusal of an option.
pub fn configure_socket(
    stream: &TcpStream,
    read_timeout: Option<Duration>,
    write_timeout: Option<Duration>,
) -> Result<(), ServiceError> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(read_timeout)?;
    stream.set_write_timeout(write_timeout)?;
    Ok(())
}

/// Read one message, auto-detecting its encoding from the first byte.
/// Returns `None` on a clean end-of-stream; blank lines are skipped.
/// The returned [`Encoding`] lets the caller answer in kind.
///
/// # Errors
///
/// Propagates I/O failures; rejects oversized frames and non-UTF-8
/// frame payloads.
pub fn read_message(reader: &mut impl BufRead) -> Result<Option<(String, Encoding)>, ServiceError> {
    loop {
        let first = {
            let buf = reader.fill_buf().map_err(|e| timeout_aware(e, "read"))?;
            match buf.first() {
                Some(&b) => b,
                None => return Ok(None), // clean EOF between messages
            }
        };
        match first {
            FRAME_MARKER => {
                reader.consume(1);
                let mut len_bytes = [0u8; 4];
                reader
                    .read_exact(&mut len_bytes)
                    .map_err(|e| timeout_aware(e, "read"))?;
                let len = u32::from_be_bytes(len_bytes) as usize;
                if len > MAX_FRAME_BYTES {
                    return Err(ServiceError::protocol(format!(
                        "frame header claims {len} bytes, above the {MAX_FRAME_BYTES}-byte cap"
                    )));
                }
                let mut payload = vec![0u8; len];
                reader
                    .read_exact(&mut payload)
                    .map_err(|e| timeout_aware(e, "read"))?;
                let text = String::from_utf8(payload)
                    .map_err(|_| ServiceError::protocol("frame payload is not UTF-8"))?;
                return Ok(Some((text, Encoding::Binary)));
            }
            b'\n' | b'\r' => {
                reader.consume(1);
            }
            _ => {
                // Accumulate one text line with the same size cap as
                // binary frames: without it, a newline-free stream
                // would grow the buffer without bound.
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
                let trimmed = text.trim();
                if !trimmed.is_empty() {
                    return Ok(Some((trimmed.to_owned(), Encoding::Text)));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Typed layer: proto messages through the one codec
// ---------------------------------------------------------------------

/// Write one typed [`Request`] in the chosen encoding.
///
/// # Errors
///
/// Propagates I/O failures and the binary-frame size cap.
pub fn write_request(
    writer: &mut impl Write,
    request: &Request,
    encoding: Encoding,
) -> Result<(), ServiceError> {
    write_message(writer, &request.to_json().render(), encoding)
}

/// Read and decode one request. Returns `None` on a clean
/// end-of-stream. Decode failures (unparsable JSON included) come back
/// as `Some(Err(…))` inside a successful read, so a server can answer
/// them with a typed error instead of dropping the connection.
///
/// # Errors
///
/// The outer `Err` is transport-level only (I/O, framing, non-UTF-8).
#[allow(clippy::type_complexity)]
pub fn read_request(
    reader: &mut impl BufRead,
) -> Result<Option<(Result<Request, DecodeError>, Encoding)>, ServiceError> {
    let Some((payload, encoding)) = read_message(reader)? else {
        return Ok(None);
    };
    Ok(Some((decode_request(&payload), encoding)))
}

/// Parse and decode one request payload.
///
/// # Errors
///
/// A payload that is not even JSON is a [`DecodeError`] like any other
/// malformed request, so every failure can be answered the same way.
pub fn decode_request(payload: &str) -> Result<Request, DecodeError> {
    let parsed = Json::parse(payload).map_err(|e| DecodeError {
        id: None,
        message: e.to_string(),
    })?;
    Request::decode(&parsed).map(|(request, _)| request)
}

/// Write one [`Response`] in the given encoding.
///
/// # Errors
///
/// Propagates I/O failures and the binary-frame size cap.
pub fn write_response(
    writer: &mut impl Write,
    response: &Response,
    encoding: Encoding,
) -> Result<(), ServiceError> {
    write_message(writer, &response.to_json().render(), encoding)
}

/// Read and decode one response. Returns `None` on a clean
/// end-of-stream.
///
/// # Errors
///
/// Fails on I/O errors, framing errors, or responses that do not parse
/// as the typed protocol.
pub fn read_response(
    reader: &mut impl BufRead,
) -> Result<Option<(Response, Encoding)>, ServiceError> {
    match read_message(reader)? {
        Some((payload, encoding)) => {
            Ok(Some((Response::decode(&Json::parse(&payload)?)?, encoding)))
        }
        None => Ok(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn text_messages_round_trip_and_skip_blank_lines() {
        let mut out = Vec::new();
        write_message(&mut out, r#"{"id":1}"#, Encoding::Text).unwrap();
        out.extend_from_slice(b"\r\n\n");
        write_message(&mut out, r#"{"id":2}"#, Encoding::Text).unwrap();
        let mut reader = BufReader::new(&out[..]);
        assert_eq!(
            read_message(&mut reader).unwrap(),
            Some((r#"{"id":1}"#.to_owned(), Encoding::Text))
        );
        assert_eq!(
            read_message(&mut reader).unwrap(),
            Some((r#"{"id":2}"#.to_owned(), Encoding::Text))
        );
        assert_eq!(read_message(&mut reader).unwrap(), None);
    }

    #[test]
    fn binary_frames_round_trip_and_interleave_with_text() {
        let mut out = Vec::new();
        write_message(&mut out, r#"{"id":1}"#, Encoding::Binary).unwrap();
        write_message(&mut out, r#"{"id":2}"#, Encoding::Text).unwrap();
        write_message(&mut out, "{\"s\":\"line\\nbreak\"}", Encoding::Binary).unwrap();
        let mut reader = BufReader::new(&out[..]);
        assert_eq!(
            read_message(&mut reader).unwrap(),
            Some((r#"{"id":1}"#.to_owned(), Encoding::Binary))
        );
        assert_eq!(
            read_message(&mut reader).unwrap(),
            Some((r#"{"id":2}"#.to_owned(), Encoding::Text))
        );
        assert_eq!(
            read_message(&mut reader).unwrap(),
            Some(("{\"s\":\"line\\nbreak\"}".to_owned(), Encoding::Binary))
        );
        assert_eq!(read_message(&mut reader).unwrap(), None);
    }

    #[test]
    fn hostile_frame_lengths_are_rejected_without_allocation() {
        let mut out = vec![FRAME_MARKER];
        out.extend_from_slice(&u32::MAX.to_be_bytes());
        let err = read_message(&mut BufReader::new(&out[..])).unwrap_err();
        assert!(err.to_string().contains("cap"), "{err}");
    }

    #[test]
    fn truncated_frames_are_io_errors_not_hangs() {
        let mut out = vec![FRAME_MARKER];
        out.extend_from_slice(&8u32.to_be_bytes());
        out.extend_from_slice(b"only4");
        assert!(read_message(&mut BufReader::new(&out[..])).is_err());
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
        struct Stalled;
        impl std::io::Read for Stalled {
            fn read(&mut self, _buf: &mut [u8]) -> std::io::Result<usize> {
                Err(std::io::Error::from(std::io::ErrorKind::WouldBlock))
            }
        }
        let err = read_message(&mut BufReader::new(Stalled)).unwrap_err();
        assert!(matches!(err, ServiceError::Timeout(_)), "{err}");
        assert!(err.is_retryable());

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
            for encoding in [Encoding::Text, Encoding::Binary] {
                let mut out = Counting::default();
                write_message(&mut out, &payload, encoding).unwrap();
                assert_eq!(out.writes, 1, "{len} B, {encoding:?}");
                assert_eq!(
                    read_message(&mut BufReader::new(&out.bytes[..])).unwrap(),
                    Some((payload.clone(), encoding))
                );
            }
        }
    }

    #[test]
    fn non_utf8_frame_payloads_are_rejected() {
        let mut out = vec![FRAME_MARKER];
        out.extend_from_slice(&2u32.to_be_bytes());
        out.extend_from_slice(&[0xff, 0xfe]);
        let err = read_message(&mut BufReader::new(&out[..])).unwrap_err();
        assert!(err.to_string().contains("UTF-8"), "{err}");
    }
}
