#include "peerhood/session_store.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>

namespace peerhood {

void SessionStore::bind_file(const std::string& path) {
  path_ = path;
  if (path_.empty()) return;
  std::ifstream in{path_};
  if (!in) return;  // first incarnation: nothing journalled yet
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields{line};
    std::string tag;
    SessionRecord record;
    std::uint64_t peer64 = 0;
    fields >> tag >> record.session_id >> peer64 >> record.next_seq >>
        record.expected;
    if (!fields || tag != "v1") continue;  // torn/foreign line: skip it
    record.peer = MacAddress::from_u64(peer64);
    fields.ignore(1);
    std::getline(fields, record.service);
    const std::uint64_t id = record.session_id;
    records_[id] = std::move(record);
    touch(id);
  }
}

void SessionStore::persist() const {
  if (path_.empty()) return;
  // Whole-file rewrite through a temp + rename: the journal on disk is
  // always a complete snapshot, never a torn one (the store is bounded, so
  // the rewrite is a few KB at most).
  const std::string tmp = path_ + ".tmp";
  {
    std::ofstream out{tmp, std::ios::trunc};
    if (!out) return;
    for (const auto& [id, record] : records_) {
      out << "v1 " << id << ' ' << record.peer.as_u64() << ' '
          << record.next_seq << ' ' << record.expected << ' '
          << record.service << '\n';
    }
  }
  std::rename(tmp.c_str(), path_.c_str());
}

void SessionStore::touch(std::uint64_t session_id) {
  const auto it = std::find(order_.begin(), order_.end(), session_id);
  if (it != order_.end()) order_.erase(it);
  order_.push_back(session_id);
}

void SessionStore::put(SessionRecord record) {
  const std::uint64_t id = record.session_id;
  if (records_.find(id) == records_.end() && records_.size() >= capacity_ &&
      capacity_ > 0 && !order_.empty()) {
    const std::uint64_t victim = order_.front();
    order_.pop_front();
    records_.erase(victim);
    ++evictions_;
  }
  records_[id] = std::move(record);
  touch(id);
  persist();
}

bool SessionStore::update_frontier(std::uint64_t session_id,
                                   std::uint64_t next_seq,
                                   std::uint64_t expected) {
  const auto it = records_.find(session_id);
  if (it == records_.end()) return false;
  it->second.next_seq = next_seq;
  it->second.expected = expected;
  touch(session_id);
  persist();
  return true;
}

const SessionRecord* SessionStore::find(std::uint64_t session_id) const {
  const auto it = records_.find(session_id);
  return it == records_.end() ? nullptr : &it->second;
}

void SessionStore::erase(std::uint64_t session_id) {
  // Nothing journalled for this id: the file already says so.
  if (records_.erase(session_id) == 0) return;
  const auto it = std::find(order_.begin(), order_.end(), session_id);
  if (it != order_.end()) order_.erase(it);
  persist();
}

}  // namespace peerhood
