//! A minimal HTTP/1.1 client: one request per connection, read to EOF,
//! and the chunked-body decoder the answer checks use.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One completed exchange.
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Time from connect to the first response byte.
    pub ttfb: Duration,
    /// Time from connect to EOF.
    pub latency: Duration,
    /// The whole response as received.
    pub raw: Vec<u8>,
}

/// `GET target` on a fresh connection, reading until the server closes.
pub fn get(addr: SocketAddr, target: &str) -> io::Result<Response> {
    let start = Instant::now();
    let mut conn = TcpStream::connect(addr)?;
    conn.set_read_timeout(Some(Duration::from_secs(30)))?;
    conn.write_all(
        format!("GET {target} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n").as_bytes(),
    )?;
    let mut raw = Vec::with_capacity(8192);
    let mut buf = [0u8; 16384];
    let mut ttfb = None;
    loop {
        let n = conn.read(&mut buf)?;
        if n == 0 {
            break;
        }
        ttfb.get_or_insert_with(|| start.elapsed());
        raw.extend_from_slice(&buf[..n]);
    }
    let latency = start.elapsed();
    let status = std::str::from_utf8(raw.get(9..12).unwrap_or_default())
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    Ok(Response {
        status,
        ttfb: ttfb.unwrap_or(latency),
        latency,
        raw,
    })
}

/// Percent-encode `s` for a query-string value.
pub fn encode(s: &str) -> String {
    s.bytes()
        .map(|b| match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                (b as char).to_string()
            }
            _ => format!("%{b:02X}"),
        })
        .collect()
}

/// The body of a raw response (everything after the blank line).
pub fn body(raw: &[u8]) -> Result<&[u8], String> {
    raw.windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|i| &raw[i + 4..])
        .ok_or_else(|| "response has no header terminator".into())
}

/// Decode a chunked transfer-encoded body; refuses truncated or malformed
/// framing, and anything after the terminating chunk.
pub fn decode_chunked(mut body: &[u8]) -> Result<Vec<u8>, String> {
    let mut out = Vec::new();
    loop {
        let line_end = body
            .windows(2)
            .position(|w| w == b"\r\n")
            .ok_or("chunk size line not terminated")?;
        let size_text = std::str::from_utf8(&body[..line_end]).map_err(|e| e.to_string())?;
        let size_text = size_text.split(';').next().unwrap_or_default().trim();
        let size = usize::from_str_radix(size_text, 16)
            .map_err(|e| format!("chunk size {size_text:?}: {e}"))?;
        body = &body[line_end + 2..];
        if size == 0 {
            return if body == b"\r\n" {
                Ok(out)
            } else {
                Err("malformed or trailing data after the last chunk".into())
            };
        }
        if body.len() < size + 2 {
            return Err("truncated chunk".into());
        }
        out.extend_from_slice(&body[..size]);
        if &body[size..size + 2] != b"\r\n" {
            return Err("chunk data not followed by CRLF".into());
        }
        body = &body[size + 2..];
    }
}

/// Node ids of a decoded answer body, one per line.
pub fn ids(payload: &[u8]) -> Result<Vec<u32>, String> {
    std::str::from_utf8(payload)
        .map_err(|e| e.to_string())?
        .lines()
        .map(|l| l.parse().map_err(|e| format!("answer line {l:?}: {e}")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunked_bodies_decode() {
        assert_eq!(
            decode_chunked(b"6\r\n1\n2\n3\n\r\n0\r\n\r\n").unwrap(),
            b"1\n2\n3\n"
        );
        assert_eq!(
            decode_chunked(b"2\r\n1\n\r\na;ext=1\r\n0123456789\r\n0\r\n\r\n").unwrap(),
            b"1\n0123456789"
        );
        assert_eq!(decode_chunked(b"0\r\n\r\n").unwrap(), b"");
        assert!(decode_chunked(b"6\r\n1\n2\n").is_err(), "truncated data");
        assert!(
            decode_chunked(b"6\r\n1\n2\n3\n\r\n").is_err(),
            "no terminator"
        );
        assert!(
            decode_chunked(b"2\r\n1\nXX0\r\n\r\n").is_err(),
            "missing CRLF"
        );
        assert!(decode_chunked(b"zz\r\n").is_err(), "bad size");
        assert!(decode_chunked(b"0\r\n\r\nextra").is_err(), "trailing bytes");
    }

    #[test]
    fn decoder_round_trips_the_servers_encoder() {
        let answers: std::collections::BTreeSet<u32> = (0..1000).map(|i| i * 7).collect();
        let mut wire = Vec::new();
        x2s_serve::stream_answers(&mut wire, &answers, 64).unwrap();
        let got = ids(&decode_chunked(&wire).unwrap()).unwrap();
        assert_eq!(got, answers.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn query_values_are_percent_encoded() {
        assert_eq!(
            encode("dept//course[a or b]"),
            "dept%2F%2Fcourse%5Ba%20or%20b%5D"
        );
        assert_eq!(
            x2s_serve::protocol::percent_decode(&encode("a/descendant-or-self::*/b | c")),
            "a/descendant-or-self::*/b | c"
        );
    }
}
