#include "src/storage/storage_engine.h"

#include <string>

namespace soap::storage {

Status StorageEngine::ApplyInsert(uint64_t txn_id, const Tuple& tuple) {
  SOAP_RETURN_NOT_OK(table_.Insert(tuple));
  wal_.AppendInsert(txn_id, tuple);
  if (observer_ != nullptr) {
    observer_->OnApplyInsert(partition_id_, txn_id, tuple);
  }
  return Status::OK();
}

Status StorageEngine::ApplyUpdate(uint64_t txn_id, TupleKey key,
                                  int64_t content, SimTime commit_ts) {
  SOAP_RETURN_NOT_OK(table_.Update(key, content));
  Result<Tuple> updated = table_.Get(key);
  wal_.AppendUpdate(txn_id, *updated, commit_ts);
  if (observer_ != nullptr) {
    observer_->OnApplyUpdate(partition_id_, txn_id, *updated);
  }
  return Status::OK();
}

Status StorageEngine::ApplyErase(uint64_t txn_id, TupleKey key) {
  SOAP_RETURN_NOT_OK(table_.Erase(key));
  wal_.AppendErase(txn_id, key);
  if (observer_ != nullptr) {
    observer_->OnApplyErase(partition_id_, txn_id, key);
  }
  return Status::OK();
}

Status StorageEngine::RecoverFromWal() {
  // The WAL only holds records appended since the last checkpoint
  // (Checkpoint() truncates it), so replay must start from the
  // checkpoint image — an empty table would silently lose everything
  // the truncated prefix covered.
  Table recovered = checkpoint_;
  SOAP_RETURN_NOT_OK(wal_.Replay(&recovered));
  table_ = std::move(recovered);
  return Status::OK();
}

void StorageEngine::Checkpoint() {
  checkpoint_ = table_;
  wal_.Truncate(0);
}

Status StorageEngine::VerifyRecoveryImage() const {
  Table recovered = checkpoint_;
  SOAP_RETURN_NOT_OK(wal_.Replay(&recovered));
  if (recovered.size() != table_.size()) {
    return Status::Corruption(
        "partition " + std::to_string(partition_id_) + ": recovery yields " +
        std::to_string(recovered.size()) + " tuples, live table has " +
        std::to_string(table_.size()));
  }
  // Report the smallest diverging key, so the message does not depend on
  // the table's slot layout.
  bool diverged = false;
  Tuple first;
  table_.ForEach([&](const Tuple& live) {
    if (diverged && live.key >= first.key) return;
    Result<Tuple> replayed = recovered.Get(live.key);
    if (!replayed.ok() || replayed->content != live.content) {
      diverged = true;
      first = live;
    }
  });
  if (!diverged) return Status::OK();
  return Status::Corruption(
      "partition " + std::to_string(partition_id_) + " key " +
      std::to_string(first.key) + ": recovery image diverges from live " +
      "table (live content " + std::to_string(first.content) + ")");
}

Status StorageEngine::CrashAndRecover() {
  // Crash: the in-memory table is gone. Restart: reload the checkpoint
  // image and roll the WAL suffix forward over it.
  Table recovered = checkpoint_;
  SOAP_RETURN_NOT_OK(wal_.Replay(&recovered));
  table_ = std::move(recovered);
  return Status::OK();
}

}  // namespace soap::storage
