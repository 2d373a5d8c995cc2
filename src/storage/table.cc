#include "src/storage/table.h"

#include <string>

namespace soap::storage {

void Table::SetLazyBase(uint64_t num_keys, uint32_t partition,
                        uint32_t num_partitions) {
  lazy_ = true;
  base_num_keys_ = num_keys;
  base_partition_ = partition;
  base_stride_ = num_partitions == 0 ? 1 : num_partitions;
  virtual_live_ =
      partition < num_keys
          ? (num_keys - partition + base_stride_ - 1) / base_stride_
          : 0;
  // Pre-existing rows and tombstones would double-count; the base must be
  // declared before any data lands.
  for (const Tuple& tuple : rows_) {
    if (InBase(tuple.key)) --virtual_live_;
  }
}

Status Table::Insert(const Tuple& tuple) {
  if (VirtualLive(tuple.key)) {
    return Status::AlreadyExistsTuple(tuple.key);
  }
  auto [slot, inserted] = rows_.try_emplace(tuple.key);
  if (!inserted) {
    return Status::AlreadyExistsTuple(tuple.key);
  }
  *slot = tuple;
  if (lazy_ && InBase(tuple.key)) dead_.erase(tuple.key);
  return Status::OK();
}

void Table::Upsert(const Tuple& tuple) {
  if (VirtualLive(tuple.key)) --virtual_live_;
  if (lazy_ && InBase(tuple.key)) dead_.erase(tuple.key);
  *rows_.try_emplace(tuple.key).first = tuple;
}

Result<Tuple> Table::Get(TupleKey key) const {
  if (const Tuple* row = rows_.find(key)) {
    return *row;
  }
  if (VirtualLive(key)) {
    return SynthesizeRow(key);
  }
  return Status::NotFoundTuple(key);
}

Status Table::Update(TupleKey key, int64_t content) {
  Tuple* row = rows_.find(key);
  if (row == nullptr) {
    if (!VirtualLive(key)) {
      return Status::NotFoundTuple(key);
    }
    // First write to a virtual base row: materialise, then update.
    --virtual_live_;
    row = rows_.try_emplace(key).first;
    *row = SynthesizeRow(key);
  }
  row->content = content;
  row->version++;
  return Status::OK();
}

Status Table::Erase(TupleKey key) {
  if (rows_.erase(key)) {
    if (lazy_ && InBase(key)) dead_.insert(key);
    return Status::OK();
  }
  if (VirtualLive(key)) {
    --virtual_live_;
    dead_.insert(key);
    return Status::OK();
  }
  return Status::NotFoundTuple(key);
}

}  // namespace soap::storage
