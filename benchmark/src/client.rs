//! The benchmark's own HTTP/1.1 client side for the gateway: an incremental
//! parser for a response's status line, headers, chunked body and the
//! server-sent events inside it. Kept independent of `windserve-gateway` so
//! the benchmark tests the wire format as deployed, not the gateway's own
//! reading of it.

/// Something the parser recognised in the bytes fed so far.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// The status line is complete.
    Status(u16),
    /// One complete server-sent event: its `event:` name, if any, and its
    /// `data:` lines joined with `\n`.
    Event { name: Option<String>, data: String },
    /// The chunked body's terminating zero-length chunk.
    End,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    StatusLine,
    Headers,
    ChunkSize,
    ChunkData(usize),
    ChunkEnd,
    /// A body without chunked framing (error responses); ignored.
    Identity,
    Done,
}

/// Incremental response parser: feed bytes as they arrive from the socket,
/// take frames out in wire order.
#[derive(Debug)]
pub struct ResponseParser {
    raw: Vec<u8>,
    state: State,
    chunked: bool,
    /// Decoded body bytes that do not yet end an event.
    body: Vec<u8>,
}

impl Default for ResponseParser {
    fn default() -> Self {
        ResponseParser {
            raw: Vec::new(),
            state: State::StatusLine,
            chunked: false,
            body: Vec::new(),
        }
    }
}

impl ResponseParser {
    /// Consumes `bytes` and returns every frame they complete.
    ///
    /// # Errors
    ///
    /// A malformed status line or chunk-size line.
    pub fn feed(&mut self, bytes: &[u8]) -> Result<Vec<Frame>, String> {
        self.raw.extend_from_slice(bytes);
        let mut frames = Vec::new();
        let mut at = 0;
        loop {
            match self.state {
                State::StatusLine | State::Headers | State::ChunkSize => {
                    let Some(len) = find(&self.raw[at..], b"\r\n") else {
                        break;
                    };
                    let line = String::from_utf8_lossy(&self.raw[at..at + len]).into_owned();
                    at += len + 2;
                    self.on_line(&line, &mut frames)?;
                }
                State::ChunkData(remaining) => {
                    let take = remaining.min(self.raw.len() - at);
                    if take == 0 {
                        break;
                    }
                    self.body.extend_from_slice(&self.raw[at..at + take]);
                    at += take;
                    self.state = match remaining - take {
                        0 => State::ChunkEnd,
                        left => State::ChunkData(left),
                    };
                    self.take_events(&mut frames);
                }
                State::ChunkEnd => {
                    if self.raw.len() - at < 2 {
                        break;
                    }
                    if &self.raw[at..at + 2] != b"\r\n" {
                        return Err("chunk data not followed by CRLF".to_string());
                    }
                    at += 2;
                    self.state = State::ChunkSize;
                }
                State::Identity | State::Done => {
                    at = self.raw.len();
                    break;
                }
            }
        }
        self.raw.drain(..at);
        Ok(frames)
    }

    fn on_line(&mut self, line: &str, frames: &mut Vec<Frame>) -> Result<(), String> {
        match self.state {
            State::StatusLine => {
                let code = line
                    .strip_prefix("HTTP/1.1 ")
                    .and_then(|rest| rest.get(..3))
                    .and_then(|c| c.parse().ok())
                    .ok_or_else(|| format!("bad status line {line:?}"))?;
                frames.push(Frame::Status(code));
                self.state = State::Headers;
            }
            State::Headers if line.is_empty() => {
                self.state = if self.chunked {
                    State::ChunkSize
                } else {
                    State::Identity
                };
            }
            State::Headers => {
                if let Some((name, value)) = line.split_once(':') {
                    if name.trim().eq_ignore_ascii_case("transfer-encoding")
                        && value.trim().eq_ignore_ascii_case("chunked")
                    {
                        self.chunked = true;
                    }
                }
            }
            State::ChunkSize => {
                let digits = line.split(';').next().unwrap_or("").trim();
                let size = usize::from_str_radix(digits, 16)
                    .map_err(|_| format!("bad chunk size {line:?}"))?;
                if size == 0 {
                    frames.push(Frame::End);
                    self.state = State::Done;
                } else {
                    self.state = State::ChunkData(size);
                }
            }
            _ => unreachable!("lines are only read in line-oriented states"),
        }
        Ok(())
    }

    /// Moves every event completed by a blank line out of the body buffer.
    fn take_events(&mut self, frames: &mut Vec<Frame>) {
        while let Some(end) = find(&self.body, b"\n\n") {
            let block = String::from_utf8_lossy(&self.body[..end]).into_owned();
            self.body.drain(..end + 2);
            let mut name = None;
            let mut data: Vec<&str> = Vec::new();
            for line in block.lines() {
                if let Some(v) = line.strip_prefix("event:") {
                    name = Some(v.trim_start().to_string());
                } else if let Some(v) = line.strip_prefix("data:") {
                    data.push(v.strip_prefix(' ').unwrap_or(v));
                }
            }
            frames.push(Frame::Event {
                name,
                data: data.join("\n"),
            });
        }
    }
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use windserve_gateway::http::{encode_chunk, sse_response_head, LAST_CHUNK};
    use windserve_gateway::sse::SseEvent;

    /// A complete streamed completion exactly as the gateway frames it.
    fn canned_stream() -> (Vec<u8>, Vec<Frame>) {
        let mut wire = sse_response_head();
        let mut expected = vec![Frame::Status(200)];
        for i in 0..8 {
            let data = format!(r#"{{"id":"cmpl-3","token_index":{i},"virtual_time_secs":{i}.25}}"#);
            wire.extend_from_slice(&encode_chunk(&SseEvent::data(data.clone()).encode()));
            expected.push(Frame::Event { name: None, data });
        }
        let named = SseEvent::named("deadline-exceeded", "line one\nline two");
        wire.extend_from_slice(&encode_chunk(&named.encode()));
        expected.push(Frame::Event {
            name: Some("deadline-exceeded".to_string()),
            data: "line one\nline two".to_string(),
        });
        wire.extend_from_slice(&encode_chunk(&SseEvent::data("[DONE]").encode()));
        expected.push(Frame::Event {
            name: None,
            data: "[DONE]".to_string(),
        });
        wire.extend_from_slice(LAST_CHUNK);
        expected.push(Frame::End);
        (wire, expected)
    }

    fn parse_in_pieces(wire: &[u8], cuts: &[usize]) -> Vec<Frame> {
        let mut parser = ResponseParser::default();
        let mut frames = Vec::new();
        let mut from = 0;
        for &cut in cuts.iter().chain(std::iter::once(&wire.len())) {
            frames.extend(parser.feed(&wire[from..cut]).expect("well-formed stream"));
            from = cut;
        }
        frames
    }

    #[test]
    fn a_stream_parses_identically_when_split_at_every_offset() {
        let (wire, expected) = canned_stream();
        assert_eq!(parse_in_pieces(&wire, &[]), expected);
        for cut in 0..=wire.len() {
            assert_eq!(parse_in_pieces(&wire, &[cut]), expected, "split at {cut}");
        }
    }

    #[test]
    fn a_stream_parses_identically_when_fed_byte_by_byte() {
        let (wire, expected) = canned_stream();
        let cuts: Vec<usize> = (1..wire.len()).collect();
        assert_eq!(parse_in_pieces(&wire, &cuts), expected);
    }

    #[test]
    fn error_responses_report_their_status_and_skip_the_body() {
        let wire = b"HTTP/1.1 503 Service Unavailable\r\nContent-Length: 9\r\n\r\n{\"e\":\"x\"}";
        assert_eq!(parse_in_pieces(wire, &[20]), vec![Frame::Status(503)]);
    }

    #[test]
    fn malformed_framing_is_an_error() {
        let mut parser = ResponseParser::default();
        assert!(parser.feed(b"SPDY/3 200\r\n").is_err());
        let mut parser = ResponseParser::default();
        let wire = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n";
        assert!(parser.feed(wire).is_err());
        let mut parser = ResponseParser::default();
        let wire = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\nabXY";
        assert!(parser.feed(wire).is_err());
    }
}
