// RestProxyFrontend: the text-protocol entry point of the checkpointing
// proxy (§3.3). Guests that handle checkpointing at application level
// contact the proxy directly with a one-line REST request; the frontend
// authenticates the caller by token, drives the typed proxy, and encodes
// the outcome — including failures — as a status-coded response, so the
// guest never needs a client library.
#pragma once

#include <string>

#include "core/mirror_device.h"
#include "core/proxy.h"
#include "core/wire.h"

namespace blobcr::core {

class RestProxyFrontend {
 public:
  /// `token`: the shared secret the proxy expects from co-located VMs
  /// (stands in for the paper's "the proxy authenticates the VM instance").
  RestProxyFrontend(CheckpointProxy& proxy, std::string token)
      : proxy_(&proxy), token_(std::move(token)) {}

  /// Serves one request. Never throws: protocol and execution errors come
  /// back as 4xx/5xx responses, exactly like an HTTP service.
  sim::Task<std::string> handle(std::string request_text,
                                vm::VmInstance& vm, MirrorDevice& dev) {
    WireRequest req;
    try {
      req = parse_request(request_text);
    } catch (const WireError& e) {
      co_return error_response(400, "Bad Request", e.what());
    }
    if (req.method != "POST")
      co_return error_response(405, "Method Not Allowed",
                               "only POST is supported");
    if (req.path != "/checkpoint")
      co_return error_response(404, "Not Found", "unknown path");
    const auto token = req.params.find("token");
    if (token == req.params.end() || token->second != token_)
      co_return error_response(403, "Forbidden", "bad or missing token");

    try {
      CheckpointProxy::Capture cap;
      cap.mirror = &dev;
      const CheckpointProxy::Result result =
          co_await proxy_->request_checkpoint(vm, cap);
      WireResponse resp;
      resp.status = 200;
      resp.reason = "OK";
      resp.fields["image"] = std::to_string(result.image);
      resp.fields["version"] = std::to_string(result.version);
      resp.fields["payload-bytes"] = std::to_string(result.payload_bytes);
      resp.fields["downtime-us"] =
          std::to_string(result.vm_downtime / sim::kMicrosecond);
      co_return encode_response(resp);
    } catch (const std::exception& e) {
      // §3.3: the proxy resumes the VM and reports the failure either way.
      co_return error_response(500, "Internal Server Error", e.what());
    }
  }

 private:
  static std::string error_response(int status, const std::string& reason,
                                    const std::string& detail) {
    WireResponse resp;
    resp.status = status;
    resp.reason = reason;
    resp.fields["error"] = detail;
    return encode_response(resp);
  }

  CheckpointProxy* proxy_;
  std::string token_;
};

}  // namespace blobcr::core
