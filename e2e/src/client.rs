//! A minimal blocking client of the serve wire protocol, built only on the
//! protocol's public codec (`ServeRequest::encode`, `FrameDecoder`,
//! `ServeResponse::decode`).

use fast_bcnn::serve::{
    FrameDecoder, ServeRequest, ServeResponse, WireError, DEFAULT_MAX_FRAME_BYTES,
};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

pub struct Client {
    stream: TcpStream,
    decoder: FrameDecoder,
    buf: Vec<u8>,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> Result<Self, WireError> {
        let io = |e: std::io::Error| WireError::Io(e.to_string());
        let stream = TcpStream::connect(addr).map_err(io)?;
        stream.set_nodelay(true).map_err(io)?;
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(io)?;
        Ok(Self {
            stream,
            decoder: FrameDecoder::new(DEFAULT_MAX_FRAME_BYTES),
            buf: vec![0; 16 * 1024],
        })
    }

    /// Encodes `req`, sends it and blocks for its response (closed loop:
    /// one request in flight per connection).
    pub fn roundtrip(&mut self, req: &ServeRequest) -> Result<ServeResponse, WireError> {
        let io = |e: std::io::Error| WireError::Io(e.to_string());
        let frame = req.encode(DEFAULT_MAX_FRAME_BYTES)?;
        self.stream.write_all(&frame).map_err(io)?;
        loop {
            if let Some(payload) = self.decoder.next_frame()? {
                return ServeResponse::decode(&payload);
            }
            let n = self.stream.read(&mut self.buf).map_err(io)?;
            if n == 0 {
                return Err(WireError::Io("server closed the connection".into()));
            }
            self.decoder.push(&self.buf[..n]);
        }
    }
}
