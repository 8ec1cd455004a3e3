// Load generation: the loopback client, the serve request pool and the
// in-process reference execution.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>

#include "bench.h"
#include "engine/predicates.h"
#include "engine/scan.h"
#include "util/net.h"
#include "util/rng.h"

namespace perfbench {

using adict::PredicateOp;
using adict::QueryKind;

// ---------------------------------------------------------------- client

Client::Client(int port) : port_(port) { Reconnect(); }

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

bool Client::Reconnect() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port_));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd_);
    fd_ = -1;
    return false;
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return true;
}

bool Client::RecvAll(void* buf, size_t size) {
  size_t got = 0;
  while (got < size) {
    const ssize_t n = ::recv(fd_, static_cast<char*>(buf) + got, size - got, 0);
    if (n <= 0) return false;
    got += static_cast<size_t>(n);
  }
  return true;
}

Client::Outcome Client::RoundTrip(const Request& request, Response* response,
                                  SpanBuffer* spans) {
  if (fd_ < 0) return Outcome::kDropped;
  uint64_t start = NowNs();
  std::vector<uint8_t> frame;
  {
    ScopedSpan span(spans, "protocol.encode", request.request_id);
    frame = adict::EncodeRequest(request);
  }
  last_encode_ns_ = NowNs() - start;
  {
    ScopedSpan span(spans, "net.roundtrip", request.request_id);
    if (!adict::SendAll(fd_, std::string_view(
                                 reinterpret_cast<const char*>(frame.data()),
                                 frame.size()))) {
      return Outcome::kDropped;
    }
    uint8_t prefix[sizeof(uint32_t)];
    if (!RecvAll(prefix, sizeof(prefix))) return Outcome::kDropped;
    uint32_t length = 0;
    std::memcpy(&length, prefix, sizeof(length));
    if (length > adict::kMaxFrameBytes) return Outcome::kDropped;
    body_.resize(length);
    if (length > 0 && !RecvAll(body_.data(), body_.size())) {
      return Outcome::kDropped;
    }
  }
  start = NowNs();
  adict::StatusOr<Response> decoded = [&] {
    ScopedSpan span(spans, "protocol.decode", request.request_id);
    return adict::DecodeResponseBody(body_);
  }();
  last_decode_ns_ = NowNs() - start;
  if (!decoded.ok()) return Outcome::kDropped;
  *response = std::move(*decoded);
  return response->status == adict::StatusCode::kOk ? Outcome::kOk
                                                    : Outcome::kNotOk;
}

// ---------------------------------------------------------------- pool

namespace {

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// A predicate over `values` (the column's sorted distinct values).
void RandomPredicate(adict::Rng* rng, const std::vector<std::string>& values,
                     Request* request) {
  const std::string& value = values[rng->Uniform(values.size())];
  switch (rng->Uniform(3)) {
    case 0:
      request->op = PredicateOp::kEq;
      request->value = value;
      break;
    case 1:
      request->op = PredicateOp::kPrefix;
      request->value = value.substr(0, 1 + rng->Uniform(std::min<size_t>(
                                               3, std::max<size_t>(1, value.size()))));
      break;
    default: {
      const std::string& other = values[rng->Uniform(values.size())];
      request->op = PredicateOp::kBetween;
      request->value = std::min(value, other);
      request->value2 = std::max(value, other);
      break;
    }
  }
}

}  // namespace

RequestSpace::RequestSpace(const TpchDatabase& db, uint64_t seed)
    : seed_(seed) {
  for (const Table* table : db.tables()) {
    for (size_t i = 0; i < table->num_string_columns(); ++i) {
      ColumnValues column;
      column.table = table->name();
      column.column = table->string_column_name(i);
      const std::shared_ptr<const adict::StringColumn> snapshot =
          table->string_column(i).Snapshot();
      column.rows = snapshot->num_rows();
      column.values = snapshot->MaterializeDictionary();
      columns_.push_back(std::move(column));
    }
  }
}

Request RequestSpace::Make(uint64_t rank) const {
  adict::Rng rng(Mix(seed_ * kPoolSize + rank));
  const ColumnValues& column = columns_[rng.Uniform(columns_.size())];
  Request request;
  request.table = column.table;
  request.column = column.column;
  // Mostly cheap single-column requests; 1.5% are dictionary scans.
  const uint64_t kind = rng.Uniform(1000);
  if (kind < 350) {
    request.kind = QueryKind::kExtract;
    request.row = rng.Uniform(column.rows);
  } else if (kind < 550) {
    request.kind = QueryKind::kLocate;
    request.value = column.values[rng.Uniform(column.values.size())];
    if (rng.Uniform(2) == 0) request.value += '~';  // a miss between entries
  } else if (kind < 850) {
    request.kind = QueryKind::kCount;
    RandomPredicate(&rng, column.values, &request);
  } else if (kind < 985) {
    request.kind = QueryKind::kSelect;
    request.limit = 10;
    RandomPredicate(&rng, column.values, &request);
  } else {
    request.kind = QueryKind::kCount;
    request.op = PredicateOp::kContains;
    const std::string& value = column.values[rng.Uniform(column.values.size())];
    const size_t length = std::min<size_t>(value.size(), 3 + rng.Uniform(3));
    request.value =
        value.substr(rng.Uniform(value.size() - length + 1), length);
  }
  return request;
}

// ---------------------------------------------------------------- reference

Response ExecuteInProcess(const Table& table, const Request& request) {
  Response response;
  response.request_id = request.request_id;
  const std::shared_ptr<const adict::StringColumn> snapshot =
      table.SnapshotStrings(request.column);
  const adict::StringColumn& column = *snapshot;
  adict::QueryResult& result = response.result;
  switch (request.kind) {
    case QueryKind::kCount:
    case QueryKind::kSelect: {
      std::vector<uint32_t> rows;
      uint64_t count = 0;
      if (request.op == PredicateOp::kContains) {
        rows = adict::SelectRows(column,
                                 adict::ContainsIds(column, request.value));
        count = rows.size();
      } else {
        adict::IdRange range;
        if (request.op == PredicateOp::kEq) {
          range = adict::EqIds(column, request.value);
        } else if (request.op == PredicateOp::kPrefix) {
          range = adict::PrefixIds(column, request.value);
        } else {
          range = adict::BetweenIds(column, request.value, request.value2);
        }
        if (request.kind == QueryKind::kCount) {
          count = adict::CountRows(column, range);
        } else {
          rows = adict::SelectRows(column, range);
          count = rows.size();
        }
      }
      if (request.kind == QueryKind::kCount) {
        result.column_names = {"count"};
        result.AddRow({adict::Cell(count)});
      } else {
        result.column_names = {"row", "value"};
        const uint64_t limit = std::min<uint64_t>(request.limit, rows.size());
        for (uint64_t i = 0; i < limit; ++i) {
          result.AddRow({adict::Cell(static_cast<uint64_t>(rows[i])),
                         column.GetValue(rows[i])});
        }
      }
      break;
    }
    case QueryKind::kExtract:
      result.column_names = {"value"};
      result.AddRow({column.GetValue(request.row)});
      break;
    case QueryKind::kLocate: {
      const adict::LocateResult located = column.Locate(request.value);
      result.column_names = {"id", "found"};
      result.AddRow({adict::Cell(static_cast<uint64_t>(located.id)),
                     located.found ? "1" : "0"});
      break;
    }
    default:
      response.status = adict::StatusCode::kInternal;
      break;
  }
  return response;
}

std::vector<uint8_t> ResultBytes(const Response& response) {
  return adict::EncodeQueryResult(response.result);
}

}  // namespace perfbench
