#ifndef DHYFD_NET_HTTP_H_
#define DHYFD_NET_HTTP_H_

#include <cstdint>
#include <string>
#include <vector>

namespace dhyfd::net {

/// Minimal HTTP/1.0 request/response handling for the embedded
/// observability endpoint. This is deliberately not a web server: requests
/// are GET-only, bodies are ignored, headers are bounded and skipped, and
/// every response closes the connection. All HTTP parsing in the repo lives
/// here (tools/analyze/analyze.py `naked-http` forbids it elsewhere), so the
/// accepted grammar stays auditable in one file.

/// One parsed request line. Headers are deliberately dropped: no route
/// reads them, so retaining them would only grow the attack surface.
struct HttpRequest {
  std::string method;   // e.g. "GET"
  std::string target;   // e.g. "/metrics"
  std::string version;  // e.g. "HTTP/1.0"
};

enum class HttpParseStatus {
  kNeedMore,  // terminator not seen yet; keep reading
  kOk,        // *out is valid
  kBad,       // malformed request line -> 400, drop after responding
  kTooLarge,  // no terminator within the byte cap -> 431, drop
};

/// Incremental parse over the bytes buffered so far. The request is complete
/// once the blank line ending the header block ("\r\n\r\n", or the tolerant
/// bare "\n\n") is present. A buffer that exceeds `max_bytes` without a
/// terminator is rejected as kTooLarge; a complete head whose request line
/// is not `METHOD SP TARGET SP HTTP/x.y` is kBad.
HttpParseStatus ParseHttpRequest(const std::string& buffered, HttpRequest* out,
                                 std::size_t max_bytes);

/// Serializes a complete HTTP/1.0 response with Content-Length and
/// Connection: close. `reason` defaults from the status code when null.
std::vector<std::uint8_t> RenderHttpResponse(int status,
                                             const std::string& content_type,
                                             const std::string& body);

const char* HttpStatusReason(int status);

/// Escapes a string for embedding in a JSON document (quotes not included).
std::string JsonEscape(const std::string& s);

}  // namespace dhyfd::net

#endif  // DHYFD_NET_HTTP_H_
