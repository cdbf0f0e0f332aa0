// SessionStore — the daemon's crash-survivable session journal.
//
// Everything else a daemon holds is volatile: a crash wipes DeviceStorage,
// plugin baselines and the engine's live session map. This journal models
// the one sliver of state a real daemon would fsync: per session, the resume
// frontier of its ReliableChannel — the next sequence it would send and the
// next it expects to receive. A restarted daemon honours kResumeRestart by
// looking the session up here and rebuilding the reliable layer at exactly
// that frontier, so the surviving peer replays its unacked outbox and the
// session continues with exactly-once in-order delivery.
//
// The store is bounded (crash storms must not grow it without limit): when
// full, the least-recently-touched record is dropped and counted — a client
// resuming such a session is refused with kUnknownSession and falls back to
// a fresh connect, which is degraded service, not a protocol violation.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>

#include "common/mac_address.hpp"

namespace peerhood {

struct SessionRecord {
  std::uint64_t session_id{0};
  MacAddress peer;
  std::string service;
  // ReliableChannel resume frontier: our next outgoing sequence and the next
  // incoming sequence we expect (== cumulative ack + 1).
  std::uint64_t next_seq{1};
  std::uint64_t expected{1};
};

class SessionStore {
 public:
  // `capacity` bounds the resume records that survive a crash; the least
  // recently touched record is evicted first.
  explicit SessionStore(std::size_t capacity = 64) : capacity_{capacity} {}

  // Optional file persistence — the journal of a *real* daemon process.
  // bind_file() loads every record a previous incarnation journalled at
  // `path` (the kill -9 restart path), then rewrites the file on each
  // mutation via write-temp + rename, so the on-disk journal is always a
  // complete, uncorrupted snapshot: a crash between a delivery and its
  // journal write loses at most the newest frontier — the at-least-once
  // boundary the resume protocol's dedup absorbs. Empty path (the default,
  // and every sim scenario) keeps the store purely in-memory.
  void bind_file(const std::string& path);
  [[nodiscard]] const std::string& journal_path() const { return path_; }

  // Inserts or overwrites the record and marks it most recently touched.
  void put(SessionRecord record);
  // Updates just the frontier of an existing record; false if unknown.
  bool update_frontier(std::uint64_t session_id, std::uint64_t next_seq,
                       std::uint64_t expected);
  [[nodiscard]] const SessionRecord* find(std::uint64_t session_id) const;
  void erase(std::uint64_t session_id);

  [[nodiscard]] std::size_t size() const { return records_.size(); }
  // Records evicted because the journal was full.
  [[nodiscard]] std::uint64_t evictions() const { return evictions_; }

 private:
  void touch(std::uint64_t session_id);
  void persist() const;

  std::size_t capacity_;
  std::string path_;
  std::map<std::uint64_t, SessionRecord> records_;
  // LRU order, least recent first; small enough that linear scans are fine.
  std::deque<std::uint64_t> order_;
  std::uint64_t evictions_{0};
};

}  // namespace peerhood
