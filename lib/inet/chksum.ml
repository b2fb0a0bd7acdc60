(* 16 bits per step; an odd final byte is the high half of a last word *)
let ones_sum ?(init = 0) s off len =
  let sum = ref init in
  let i = ref off in
  let stop = off + len in
  while !i + 1 < stop do
    sum := !sum + String.get_uint16_be s !i;
    i := !i + 2
  done;
  if !i < stop then sum := !sum + (Char.code s.[!i] lsl 8);
  !sum

let ones_sum_bytes ?(init = 0) b off len =
  let sum = ref init in
  let i = ref off in
  let stop = off + len in
  while !i + 1 < stop do
    sum := !sum + Bytes.get_uint16_be b !i;
    i := !i + 2
  done;
  if !i < stop then sum := !sum + (Char.code (Bytes.get b !i) lsl 8);
  !sum

let finish sum =
  let s = ref sum in
  while !s lsr 16 <> 0 do
    s := (!s land 0xffff) + (!s lsr 16)
  done;
  lnot !s land 0xffff

let checksum s = finish (ones_sum s 0 (String.length s))
let checksum_bytes b = finish (ones_sum_bytes b 0 (Bytes.length b))

let valid s =
  let folded =
    let v = ref (ones_sum s 0 (String.length s)) in
    while !v lsr 16 <> 0 do
      v := (!v land 0xffff) + (!v lsr 16)
    done;
    !v
  in
  folded = 0xffff
