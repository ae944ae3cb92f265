open Helpers
module Confirmation = Nakamoto_core.Confirmation
module Params = Nakamoto_core.Params

let test_overtake_closed_form () =
  (* ratio 0.4, deficit 3 -> 0.4^4. *)
  close "basic" (0.4 ** 4.)
    (Confirmation.overtake_probability ~honest_rate:0.1 ~adversary_rate:0.04
       ~deficit:3);
  close "deficit 0 still needs one net block" 0.4
    (Confirmation.overtake_probability ~honest_rate:0.1 ~adversary_rate:0.04
       ~deficit:0);
  close "stronger attacker is certain" 1.
    (Confirmation.overtake_probability ~honest_rate:0.04 ~adversary_rate:0.1
       ~deficit:5);
  close "equal rates certain" 1.
    (Confirmation.overtake_probability ~honest_rate:0.1 ~adversary_rate:0.1
       ~deficit:2);
  check_raises_invalid "negative deficit" (fun () ->
      ignore
        (Confirmation.overtake_probability ~honest_rate:0.1 ~adversary_rate:0.04
           ~deficit:(-1)));
  check_raises_invalid "zero rate" (fun () ->
      ignore
        (Confirmation.overtake_probability ~honest_rate:0. ~adversary_rate:0.1
           ~deficit:1))

let test_bounded_race_converges_to_unbounded () =
  let closed =
    Confirmation.overtake_probability ~honest_rate:0.1 ~adversary_rate:0.04
      ~deficit:2
  in
  let at g =
    Confirmation.overtake_probability_bounded ~honest_rate:0.1
      ~adversary_rate:0.04 ~deficit:2 ~give_up_behind:g
  in
  check_true "small cutoff underestimates" (at 5 < closed);
  close ~rtol:1e-6 "large cutoff converges" closed (at 80);
  check_true "monotone in cutoff" (at 5 <= at 10 && at 10 <= at 40);
  check_raises_invalid "cutoff must exceed deficit" (fun () ->
      ignore
        (Confirmation.overtake_probability_bounded ~honest_rate:0.1
           ~adversary_rate:0.04 ~deficit:5 ~give_up_behind:5))

let test_nakamoto_formula () =
  (* Known anchors from the Bitcoin whitepaper's q = 0.1 table:
     z=1 -> 0.2045873, z=5 -> 0.0009137, z=10 -> 0.0000012.  The
     whitepaper parameterizes by the attacker share q of total power with
     lambda = z q/p, p = 1-q — our ratio = q/p. *)
  let p_at z =
    Confirmation.nakamoto_double_spend ~ratio:(0.1 /. 0.9) ~confirmations:z
  in
  check_true
    (Printf.sprintf "z=1 near 0.2046 (%.7f)" (p_at 1))
    (Float.abs (p_at 1 -. 0.2045873) < 1e-4);
  check_true
    (Printf.sprintf "z=5 near 0.0009137 (%.7f)" (p_at 5))
    (Float.abs (p_at 5 -. 0.0009137) < 1e-5);
  check_true
    (Printf.sprintf "z=10 near 1.2e-6 (%.3e)" (p_at 10))
    (Float.abs (p_at 10 -. 0.0000012) < 5e-7);
  close "ratio >= 1 is hopeless" 1.
    (Confirmation.nakamoto_double_spend ~ratio:1.2 ~confirmations:50);
  check_raises_invalid "z = 0" (fun () ->
      ignore (Confirmation.nakamoto_double_spend ~ratio:0.3 ~confirmations:0));
  check_raises_invalid "NaN ratio" (fun () ->
      ignore (Confirmation.nakamoto_double_spend ~ratio:nan ~confirmations:3))

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* (ratio, z, risk): Nakamoto's formula 1 - sum_{k<=z} P_k(z ratio)
   (1 - ratio^(z-k)) summed term by term at 400 significant digits, at
   the exact double ratio, to 22 digits.  The ratios are 0.97 i / 40 for
   i = 1..40 at z = 1, 4, 31, 257, 2400 and 10000 wherever the risk is
   at least 1e-290.  The last row is the 1e-9 crossing at ratio
   0x1.daf6191c5d166p-1, where summing the [1 - sum] form directly
   cancels, reads 17% high and moves the depth from 7326 to 7393. *)
let reference =
  [
    (0x1.8d4fdf3b645a2p-6, 1, 4.76273416324377454334e-2);
    (0x1.8d4fdf3b645a2p-6, 4, 1.084148429544673509169e-5);
    (0x1.8d4fdf3b645a2p-6, 31, 6.346196228471677348854e-38);
    (0x1.8d4fdf3b645a2p-5, 1, 9.354654165049809071204e-2);
    (0x1.8d4fdf3b645a2p-5, 4, 1.584183948826504800634e-4);
    (0x1.8d4fdf3b645a2p-5, 31, 6.447377067970673081597e-29);
    (0x1.8d4fdf3b645a2p-5, 257, 1.41333317597775612747e-232);
    (0x1.29fbe76c8b43ap-4, 1, 1.378121103272919574782e-1);
    (0x1.29fbe76c8b43ap-4, 4, 7.325560990184519886941e-4);
    (0x1.29fbe76c8b43ap-4, 31, 8.774370963299494441779e-24);
    (0x1.29fbe76c8b43ap-4, 257, 5.007680339133862335519e-190);
    (0x1.8d4fdf3b645a2p-4, 1, 1.804769264616547980966e-1);
    (0x1.8d4fdf3b645a2p-4, 4, 2.115153057539662936777e-3);
    (0x1.8d4fdf3b645a2p-4, 31, 3.100196205441724944481e-20);
    (0x1.8d4fdf3b645a2p-4, 257, 1.267243002434503844179e-160);
    (0x1.f0a3d70a3d70ap-4, 1, 2.215922842639629246306e-1);
    (0x1.f0a3d70a3d70ap-4, 4, 4.71852184305526696802e-3);
    (0x1.f0a3d70a3d70ap-4, 31, 1.481648052746912827333e-17);
    (0x1.f0a3d70a3d70ap-4, 257, 2.007858532299482151457e-138);
    (0x1.29fbe76c8b43ap-3, 1, 2.612079389318067539984e-1);
    (0x1.29fbe76c8b43ap-3, 4, 8.942022032093229399953e-3);
    (0x1.29fbe76c8b43ap-3, 31, 1.997962518631630634832e-15);
    (0x1.29fbe76c8b43ap-3, 257, 8.837871376619979412684e-121);
    (0x1.5ba5e353f7ceep-3, 1, 2.993721509513861581595e-1);
    (0x1.5ba5e353f7ceep-3, 4, 1.514296526307295633349e-2);
    (0x1.5ba5e353f7ceep-3, 31, 1.125240040148146550926e-13);
    (0x1.5ba5e353f7ceep-3, 257, 2.79090011931412841762e-106);
    (0x1.8d4fdf3b645a2p-3, 1, 3.3613172915952708214e-1);
    (0x1.8d4fdf3b645a2p-3, 4, 2.361851907534951188088e-2);
    (0x1.8d4fdf3b645a2p-3, 31, 3.344973145514863549603e-12);
    (0x1.8d4fdf3b645a2p-3, 257, 4.403387584730037651473e-94);
    (0x1.bef9db22d0e56p-3, 1, 3.715320726002763883703e-1);
    (0x1.bef9db22d0e56p-3, 4, 3.459595840735189265837e-2);
    (0x1.bef9db22d0e56p-3, 31, 6.10399638818901180419e-11);
    (0x1.bef9db22d0e56p-3, 257, 1.213784486511426752237e-83);
    (0x1.f0a3d70a3d70ap-3, 1, 4.056172112091177101638e-1);
    (0x1.f0a3d70a3d70ap-3, 4, 4.822913089046373759176e-2);
    (0x1.f0a3d70a3d70ap-3, 31, 7.580423523858498326539e-10);
    (0x1.f0a3d70a3d70ap-3, 257, 1.374109157491499601617e-74);
    (0x1.1126e978d4fdfp-2, 1, 4.384298453569587842784e-1);
    (0x1.1126e978d4fdfp-2, 4, 6.459943062830170467804e-2);
    (0x1.1126e978d4fdfp-2, 31, 6.895649653703896348699e-9);
    (0x1.1126e978d4fdfp-2, 257, 1.175434947435553538914e-66);
    (0x1.29fbe76c8b43ap-2, 1, 4.700113842851735161912e-1);
    (0x1.29fbe76c8b43ap-2, 4, 8.371992891997950390815e-2);
    (0x1.29fbe76c8b43ap-2, 31, 4.851200687304887458136e-8);
    (0x1.29fbe76c8b43ap-2, 257, 1.191718916614723674313e-59);
    (0x1.42d0e56041893p-2, 1, 5.004019834621369277158e-1);
    (0x1.42d0e56041893p-2, 4, 1.055416012456210128323e-1);
    (0x1.42d0e56041893p-2, 31, 2.750635017653195563147e-7);
    (0x1.42d0e56041893p-2, 257, 2.015643926669761224266e-53);
    (0x1.5ba5e353f7ceep-2, 1, 5.296405808908712059836e-1);
    (0x1.5ba5e353f7ceep-2, 4, 1.299608278970192042756e-1);
    (0x1.5ba5e353f7ceep-2, 31, 1.297946853621537758672e-6);
    (0x1.5ba5e353f7ceep-2, 257, 7.418673716550875820708e-48);
    (0x1.747ae147ae147p-2, 1, 5.577649323966165093055e-1);
    (0x1.747ae147ae147p-2, 4, 1.568275395072305818701e-1);
    (0x1.747ae147ae147p-2, 31, 5.22838517664481906957e-6);
    (0x1.747ae147ae147p-2, 257, 7.335017679405558402649e-43);
    (0x1.8d4fdf3b645a2p-2, 1, 5.848116459223683176295e-1);
    (0x1.8d4fdf3b645a2p-2, 4, 1.859535357127321484697e-1);
    (0x1.8d4fdf3b645a2p-2, 31, 1.835158665434330775627e-5);
    (0x1.8d4fdf3b645a2p-2, 257, 2.308850798535670953329e-38);
    (0x1.a624dd2f1a9fbp-2, 1, 6.10816214859657025301e-1);
    (0x1.a624dd2f1a9fbp-2, 4, 2.171206314597668466563e-1);
    (0x1.a624dd2f1a9fbp-2, 31, 5.707757093233519445016e-5);
    (0x1.a624dd2f1a9fbp-2, 257, 2.658532727095256199967e-34);
    (0x1.bef9db22d0e56p-2, 1, 6.35813050441116078073e-1);
    (0x1.bef9db22d0e56p-2, 4, 2.500883862784311230234e-1);
    (0x1.bef9db22d0e56p-2, 31, 1.595094193960750510286e-4);
    (0x1.bef9db22d0e56p-2, 257, 1.256375691396767574499e-30);
    (0x1.bef9db22d0e56p-2, 2400, 1.0258691584133627702e-277);
    (0x1.d7ced916872b0p-2, 1, 6.598355132206588774246e-1);
    (0x1.d7ced916872b0p-2, 4, 2.84601251614136271668e-1);
    (0x1.d7ced916872b0p-2, 31, 4.052310000478971389917e-4);
    (0x1.d7ced916872b0p-2, 257, 2.683481384425254633964e-27);
    (0x1.d7ced916872b0p-2, 2400, 1.231212193943930355224e-246);
    (0x1.f0a3d70a3d70ap-2, 1, 6.829159436663931544594e-1);
    (0x1.f0a3d70a3d70ap-2, 4, 3.203950337500619711306e-1);
    (0x1.f0a3d70a3d70ap-2, 31, 9.451602574655386353087e-4);
    (0x1.f0a3d70a3d70ap-2, 257, 2.810644875055896624742e-24);
    (0x1.f0a3d70a3d70ap-2, 2400, 1.898199682912898626069e-218);
    (0x1.04bc6a7ef9db2p-1, 1, 7.050856918907153885155e-1);
    (0x1.04bc6a7ef9db2p-1, 4, 3.572026181057441757025e-1);
    (0x1.04bc6a7ef9db2p-1, 31, 2.041090819639778558091e-3);
    (0x1.04bc6a7ef9db2p-1, 257, 1.547692396574770937008e-21);
    (0x1.04bc6a7ef9db2p-1, 2400, 7.200779259886980968691e-193);
    (0x1.1126e978d4fdfp-1, 1, 7.263751465413695842703e-1);
    (0x1.1126e978d4fdfp-1, 4, 3.947589373797688949861e-1);
    (0x1.1126e978d4fdfp-1, 31, 4.110875843193202227293e-3);
    (0x1.1126e978d4fdfp-1, 257, 4.757297115397535713241e-19);
    (0x1.1126e978d4fdfp-1, 2400, 1.175690353842903468118e-169);
    (0x1.1d916872b020cp-1, 1, 7.468137628766086802154e-1);
    (0x1.1d916872b020cp-1, 4, 4.328051933122440563672e-1);
    (0x1.1d916872b020cp-1, 31, 7.770822427778948903151e-3);
    (0x1.1d916872b020cp-1, 257, 8.597913357160854957993e-17);
    (0x1.1d916872b020cp-1, 2400, 1.341312689414530754818e-148);
    (0x1.29fbe76c8b43ap-1, 1, 7.664300900469702958839e-1);
    (0x1.29fbe76c8b43ap-1, 4, 4.710923616037687301791e-1);
    (0x1.29fbe76c8b43ap-1, 31, 1.386314286912943253493e-2);
    (0x1.29fbe76c8b43ap-1, 257, 9.560263503453954799947e-15);
    (0x1.29fbe76c8b43ap-1, 2400, 1.631771145046618758959e-129);
    (0x1.3666666666666p-1, 1, 7.852517976055674106182e-1);
    (0x1.3666666666666p-1, 4, 5.093840232611249684347e-1);
    (0x1.3666666666666p-1, 31, 2.345488064103053333263e-2);
    (0x1.3666666666666p-1, 257, 6.80574764635443508148e-13);
    (0x1.3666666666666p-1, 2400, 3.067346011625584834109e-112);
    (0x1.42d0e56041893p-1, 1, 8.033057012682030016859e-1);
    (0x1.42d0e56041893p-1, 4, 5.474585746034246443459e-1);
    (0x1.42d0e56041893p-1, 31, 3.779685133413015971355e-2);
    (0x1.42d0e56041893p-1, 257, 3.212730577182725507517e-11);
    (0x1.42d0e56041893p-1, 2400, 1.235855325301364109253e-96);
    (0x1.4f3b645a1cac0p-1, 1, 8.206177879440346077292e-1);
    (0x1.4f3b645a1cac0p-1, 4, 5.851108733927342021549e-1);
    (0x1.4f3b645a1cac0p-1, 31, 5.823711078207423087231e-2);
    (0x1.4f3b645a1cac0p-1, 257, 1.037565980124753819794e-9);
    (0x1.4f3b645a1cac0p-1, 2400, 1.426628094925672679964e-82);
    (0x1.5ba5e353f7ceep-1, 1, 8.372132400569583520872e-1);
    (0x1.5ba5e353f7ceep-1, 4, 6.221533809012792651026e-1);
    (0x1.5ba5e353f7ceep-1, 31, 8.609234579129768082381e-2);
    (0x1.5ba5e353f7ceep-1, 257, 2.357174768201279371983e-8);
    (0x1.5ba5e353f7ceep-1, 2400, 6.110596327877455176168e-70);
    (0x1.5ba5e353f7ceep-1, 10000, 3.101181038059254719827e-288);
    (0x1.6810624dd2f1ap-1, 1, 8.531164591773288381372e-1);
    (0x1.6810624dd2f1ap-1, 4, 6.584168598880477059378e-1);
    (0x1.6810624dd2f1ap-1, 31, 1.224903713927940514801e-1);
    (0x1.6810624dd2f1ap-1, 257, 3.862305402185486396761e-7);
    (0x1.6810624dd2f1ap-1, 2400, 1.223957238914283875483e-58);
    (0x1.6810624dd2f1ap-1, 10000, 3.763923741260784612476e-241);
    (0x1.747ae147ae147p-1, 1, 8.683510889831029369456e-1);
    (0x1.747ae147ae147p-1, 4, 6.937506869951752949589e-1);
    (0x1.747ae147ae147p-1, 31, 1.682051111604597824788e-1);
    (0x1.747ae147ae147p-1, 257, 4.668255260152594576599e-6);
    (0x1.747ae147ae147p-1, 2400, 1.411353471951548777233e-48);
    (0x1.747ae147ae147p-1, 10000, 3.110337562067462256931e-199);
    (0x1.80e5604189375p-1, 1, 8.829400375689720220166e-1);
    (0x1.80e5604189375p-1, 4, 7.280228354438577696999e-1);
    (0x1.80e5604189375p-1, 31, 2.23509799846632689809e-1);
    (0x1.80e5604189375p-1, 257, 4.247882720507141671101e-5);
    (0x1.80e5604189375p-1, 2400, 1.130091970055767711813e-39);
    (0x1.80e5604189375p-1, 10000, 3.819360908451021413636e-162);
    (0x1.8d4fdf3b645a2p-1, 1, 8.969054991215472750584e-1);
    (0x1.8d4fdf3b645a2p-1, 4, 7.611195804748221196707e-1);
    (0x1.8d4fdf3b645a2p-1, 31, 2.880733890956779734408e-1);
    (0x1.8d4fdf3b645a2p-1, 257, 2.964643939372149446576e-4);
    (0x1.8d4fdf3b645a2p-1, 2400, 7.445690244881639612141e-32);
    (0x1.8d4fdf3b645a2p-1, 10000, 1.412155367256891290124e-129);
    (0x1.99ba5e353f7cep-1, 1, 9.10268974978168615287e-1);
    (0x1.99ba5e353f7cep-1, 4, 7.929449760282602981014e-1);
    (0x1.99ba5e353f7cep-1, 31, 3.609192708272350003291e-1);
    (0x1.99ba5e353f7cep-1, 257, 1.614217570266079946763e-3);
    (0x1.99ba5e353f7cep-1, 2400, 4.709444501587177271472e-25);
    (0x1.99ba5e353f7cep-1, 10000, 2.984627987924544434434e-101);
    (0x1.a624dd2f1a9fbp-1, 1, 9.230512940864299137433e-1);
    (0x1.a624dd2f1a9fbp-1, 4, 8.234201469189880229413e-1);
    (0x1.a624dd2f1a9fbp-1, 31, 4.404557301461969639838e-1);
    (0x1.a624dd2f1a9fbp-1, 257, 6.966211568339225866134e-3);
    (0x1.a624dd2f1a9fbp-1, 2400, 3.291299704109704976838e-19);
    (0x1.a624dd2f1a9fbp-1, 10000, 6.464542235905507273555e-77);
    (0x1.b28f5c28f5c28p-1, 1, 9.352726328810483871733e-1);
    (0x1.b28f5c28f5c28p-1, 4, 8.524824364095575795812e-1);
    (0x1.b28f5c28f5c28p-1, 31, 5.245761257022624972524e-1);
    (0x1.b28f5c28f5c28p-1, 257, 2.418204600239384730095e-2);
    (0x1.b28f5c28f5c28p-1, 2400, 2.890742600172223076422e-14);
    (0x1.b28f5c28f5c28p-1, 10000, 2.445650358633767872115e-56);
    (0x1.bef9db22d0e56p-1, 1, 9.469525345942541487877e-1);
    (0x1.bef9db22d0e56p-1, 4, 8.800844447502852365642e-1);
    (0x1.bef9db22d0e56p-1, 31, 6.10816051412649936663e-1);
    (0x1.bef9db22d0e56p-1, 257, 6.847803978856253913795e-2);
    (0x1.bef9db22d0e56p-1, 2400, 3.592279605513237697049e-10);
    (0x1.bef9db22d0e56p-1, 10000, 2.634120847400431319688e-39);
    (0x1.cb645a1cac083p-1, 1, 9.581099280154332403846e-1);
    (0x1.cb645a1cac083p-1, 4, 9.061929900396397958827e-1);
    (0x1.cb645a1cac083p-1, 31, 6.965466998503974164774e-1);
    (0x1.cb645a1cac083p-1, 257, 1.603609730362179788131e-1);
    (0x1.cb645a1cac083p-1, 2400, 7.050951704497307539429e-7);
    (0x1.cb645a1cac083p-1, 10000, 1.265802105251978464208e-25);
    (0x1.d7ced916872b0p-1, 1, 9.687631457153310265967e-1);
    (0x1.d7ced916872b0p-1, 4, 9.307880187325620069314e-1);
    (0x1.d7ced916872b0p-1, 31, 7.79179593580171747543e-1);
    (0x1.d7ced916872b0p-1, 257, 3.14826888923501552212e-1);
    (0x1.d7ced916872b0p-1, 2400, 2.425432487139446536838e-4);
    (0x1.d7ced916872b0p-1, 10000, 4.111012005403964736899e-15);
    (0x1.e4395810624ddp-1, 1, 9.78929941749703262571e-1);
    (0x1.e4395810624ddp-1, 4, 9.538614893372084774595e-1);
    (0x1.e4395810624ddp-1, 31, 8.563580958050272119499e-1);
    (0x1.e4395810624ddp-1, 257, 5.256060820430677287764e-1);
    (0x1.e4395810624ddp-1, 2400, 1.619640802941705255482e-2);
    (0x1.e4395810624ddp-1, 10000, 1.330961085331085454769e-7);
    (0x1.f0a3d70a3d70ap-1, 1, 9.886275088568980250434e-1);
    (0x1.f0a3d70a3d70ap-1, 4, 9.754162493238957188449e-1);
    (0x1.f0a3d70a3d70ap-1, 31, 9.261150994742209969815e-1);
    (0x1.f0a3d70a3d70ap-1, 257, 7.579400890071404787956e-1);
    (0x1.f0a3d70a3d70ap-1, 2400, 2.349114220401373873601e-1);
    (0x1.f0a3d70a3d70ap-1, 10000, 6.286609504754756498253e-3);
    (0x1.daf6191c5d166p-1, 7326, 9.988671537203207464112e-10);
  ]

let test_nakamoto_reference () =
  List.iter
    (fun (ratio, z, want) ->
      let got = Confirmation.nakamoto_double_spend ~ratio ~confirmations:z in
      if not (Float.abs (got -. want) <= 1e-10 *. want) then
        Alcotest.failf "ratio %h, z %d: %.17g, reference %.17g (rel %.2e)"
          ratio z got want
          (Float.abs (got -. want) /. want))
    reference;
  check_true "the 1e-9 depth at ratio 0x1.daf6191c5d166p-1 is 7326"
    (Confirmation.confirmations_for ~ratio:0x1.daf6191c5d166p-1 ~epsilon:1e-9
       ()
    = Some 7326)

(* The depth search needs the float P(z) nonincreasing wherever it can
   cross epsilon, so the walk goes to the default limit while P is at
   least min_epsilon: at 19 ratios up to 0.95 and at 0.91 to 0.97, where
   summing the [1 - sum] form directly rises from one depth to the next
   tens of thousands of times. *)
let test_nakamoto_monotone () =
  let ratios =
    List.init 19 (fun i -> 0.05 *. float_of_int (i + 1))
    @ List.init 7 (fun i -> 0.91 +. (0.01 *. float_of_int i))
  in
  List.iter
    (fun ratio ->
      let p z = Confirmation.nakamoto_double_spend ~ratio ~confirmations:z in
      let rec walk z prev =
        if
          z < Confirmation.default_depth_limit
          && prev >= Confirmation.min_epsilon
        then begin
          let next = p (z + 1) in
          if next > prev then
            Alcotest.failf "ratio %g: P(%d) = %.17g > P(%d) = %.17g" ratio
              (z + 1) next z prev;
          walk (z + 1) next
        end
      in
      walk 1 (p 1))
    ratios

(* Cert.double_spend_iv pads its positive-form enclosure by
   1e-12 + z^2 1e-13, far wider than the float's error, so at a point
   ratio the enclosure holds the float at every reference point. *)
let test_cert_encloses_reference () =
  let module I = Nakamoto_numerics.Interval in
  List.iter
    (fun (ratio, z, _) ->
      let got = Confirmation.nakamoto_double_spend ~ratio ~confirmations:z in
      let iv =
        Nakamoto_surface.Cert.double_spend_iv ~ratio:(I.point ratio)
          ~confirmations:z
      in
      if not (I.contains iv got) then
        Alcotest.failf "ratio %h, z %d: %.17g outside [%.17g, %.17g]" ratio z
          got (I.lo iv) (I.hi iv))
    reference

(* The linear scan the galloping search replaced, kept as the oracle. *)
let linear_confirmations ~limit ~ratio ~epsilon =
  let rec scan z =
    if z > limit then None
    else if Confirmation.nakamoto_double_spend ~ratio ~confirmations:z <= epsilon
    then Some z
    else scan (z + 1)
  in
  scan 1

(* [assess_checked] at the Internet-scale point whose rate ratio is
   close to [ratio] (nu = 0.25, c solved from the Delta -> infinity
   ratio nu / (mu e^(-2 mu / c))) answers the linear scan's depth, and
   its residual risk is the exact float the formula gives there.  Where
   no depth up to 2000 meets epsilon the scan stops, and the answer only
   has to be a first crossing past 2000, or Depth_limited. *)
let settle_matches_linear_scan ~ratio ~epsilon =
  let nu = 0.25 in
  let mu = 1. -. nu in
  let c = 2. *. mu /. log (mu *. ratio /. nu) in
  match Params.make_of_c ~n:1e5 ~delta:1e13 ~nu ~c with
  | Error _ -> true
  | Ok params -> (
    match Confirmation.assess_checked ~epsilon params with
    | Error (Confirmation.Depth_limited { rate_ratio; _ }) ->
      linear_confirmations ~limit:2000 ~ratio:rate_ratio ~epsilon = None
    | Error (Confirmation.Outside_consistency _) -> true
    | Error Confirmation.No_adversary -> false
    | Ok a -> (
      let p z =
        Confirmation.nakamoto_double_spend ~ratio:a.rate_ratio ~confirmations:z
      in
      same_bits a.residual_risk (p a.confirmations)
      &&
      match linear_confirmations ~limit:2000 ~ratio:a.rate_ratio ~epsilon with
      | Some z -> z = a.confirmations
      | None -> a.confirmations > 2000 && p (a.confirmations - 1) > epsilon))

let test_confirmations_for () =
  let z =
    match Confirmation.confirmations_for ~ratio:(0.1 /. 0.9) ~epsilon:0.001 () with
    | Some z -> z
    | None -> Alcotest.fail "q=0.1 must settle"
  in
  (* The whitepaper's "solving for P < 0.1%" table: q=0.1 -> z=5. *)
  check_int "whitepaper q=0.1 row" 5 z;
  (* z is the first depth at or below epsilon. *)
  check_true "z achieves epsilon"
    (Confirmation.nakamoto_double_spend ~ratio:(0.1 /. 0.9) ~confirmations:z
    <= 0.001);
  check_true "z-1 does not"
    (z = 1
    || Confirmation.nakamoto_double_spend ~ratio:(0.1 /. 0.9)
         ~confirmations:(z - 1)
       > 0.001);
  (* An exhausted search limit is an answer, not a crash. *)
  check_true "limit exhaustion is None"
    (Confirmation.confirmations_for ~limit:3 ~ratio:0.9 ~epsilon:1e-9 () = None);
  check_true "a ratio near 1 is unsettleable"
    (Confirmation.confirmations_for ~limit:2000 ~ratio:0.999 ~epsilon:1e-6 ()
    = None);
  check_true "unsettleable at the default limit"
    (Confirmation.confirmations_for ~ratio:0.999 ~epsilon:1e-3 () = None);
  (* The search answers the smallest depth meeting epsilon only where
     P(z) is nonincreasing, which "Nakamoto monotone" pins while P is at
     least min_epsilon, so a smaller epsilon is refused. *)
  check_raises_invalid "epsilon below min_epsilon" (fun () ->
      ignore (Confirmation.confirmations_for ~ratio:0.62 ~epsilon:1e-12 ()));
  check_raises_invalid "assess: epsilon below min_epsilon" (fun () ->
      ignore
        (Confirmation.assess ~epsilon:1e-12
           (Params.of_c ~n:1e5 ~delta:10. ~nu:0.2 ~c:6.)));
  check_true "min_epsilon itself is accepted"
    (Confirmation.confirmations_for ~ratio:0.3 ~epsilon:Confirmation.min_epsilon
       ()
    <> None);
  check_raises_invalid "epsilon range" (fun () ->
      ignore (Confirmation.confirmations_for ~ratio:0.3 ~epsilon:0. ()));
  check_raises_invalid "limit range" (fun () ->
      ignore (Confirmation.confirmations_for ~limit:0 ~ratio:0.3 ~epsilon:0.1 ()))

let test_assess () =
  let p = Params.of_c ~n:1e5 ~delta:10. ~nu:0.2 ~c:6. in
  let a = Confirmation.assess p in
  check_true "ratio < 1 inside the region" (a.rate_ratio < 1.);
  check_true "risk below default epsilon" (a.residual_risk <= 1e-3);
  check_true "confirmations grow with nu"
    ((Confirmation.assess (Params.of_c ~n:1e5 ~delta:10. ~nu:0.3 ~c:6.)).confirmations
    > a.confirmations);
  check_true "stricter epsilon needs more"
    ((Confirmation.assess ~epsilon:1e-6 p).confirmations > a.confirmations);
  check_raises_invalid "nu = 0" (fun () ->
      ignore (Confirmation.assess (Params.of_c ~n:1e5 ~delta:10. ~nu:0. ~c:6.)));
  check_raises_invalid "outside the consistency region" (fun () ->
      ignore (Confirmation.assess (Params.of_c ~n:1e5 ~delta:10. ~nu:0.45 ~c:0.5)))

(* assess-settle's strata midpoints: every depth must be a first
   crossing of epsilon, and a subsample must equal the linear scan. *)
let test_settle_strata () =
  let epsilon = 1e-3 in
  for i = 0 to 999 do
    let ratio = 0.05 +. (0.9 *. (float_of_int i +. 0.5) /. 1000.) in
    let p z = Confirmation.nakamoto_double_spend ~ratio ~confirmations:z in
    match Confirmation.confirmations_for ~ratio ~epsilon () with
    | None -> Alcotest.failf "ratio %g: no depth" ratio
    | Some z ->
      if not (p z <= epsilon && (z = 1 || p (z - 1) > epsilon)) then
        Alcotest.failf "ratio %g: depth %d is not a first crossing" ratio z;
      if i mod 50 = 0 then
        check_true
          (Printf.sprintf "ratio %g matches the linear scan" ratio)
          (linear_confirmations ~limit:Confirmation.default_depth_limit
             ~ratio ~epsilon
          = Some z)
  done

(* The read budget at assess-settle's strata midpoints: the search starts
   at the closed-form crossing, so it reads about two depths where
   galloping from z = 1 read about 16 at the mean depth of 241.  Every
   read stays within [deepest_read], the bound Cert certifies up to. *)
let test_search_probes () =
  let epsilon = 1e-3 in
  let total = ref 0 and most = ref 0 in
  for i = 0 to 999 do
    let ratio = 0.05 +. (0.9 *. (float_of_int i +. 0.5) /. 1000.) in
    let reads = Confirmation.search_reads ~ratio ~epsilon () in
    let z = Option.get (Confirmation.confirmations_for ~ratio ~epsilon ()) in
    let first = List.hd reads in
    check_int "the first read is first_read"
      (Confirmation.first_read ~ratio ~epsilon ())
      first;
    if not (List.mem z reads || z = 1) then
      Alcotest.failf "ratio %g: the answer %d was never read" ratio z;
    let deepest = Confirmation.deepest_read ~first z in
    if List.exists (fun d -> d > deepest) reads then
      Alcotest.failf "ratio %g: a read past deepest_read %d" ratio deepest;
    total := !total + List.length reads;
    most := max !most (List.length reads)
  done;
  let mean = float_of_int !total /. 1000. in
  check_true (Printf.sprintf "mean reads %.3f <= 2.2" mean) (mean <= 2.2);
  check_true (Printf.sprintf "most reads %d <= 6" !most) (!most <= 6);
  check_int "a failing first read bounds by the gallop" 13
    (Confirmation.deepest_read ~first:10 12);
  check_int "a meeting first read bounds every later read" 12
    (Confirmation.deepest_read ~first:12 10);
  check_int "no read past the limit" 20
    (Confirmation.deepest_read ~limit:20 ~first:5 15);
  check_true "an unsettleable ratio reads the limit once"
    (Confirmation.search_reads ~ratio:0.999 ~epsilon:1e-3 ()
    = [ Confirmation.default_depth_limit ]);
  check_raises_invalid "search_reads checks its arguments" (fun () ->
      ignore (Confirmation.search_reads ~ratio:1. ~epsilon:1e-3 ()))

let test_table_rendering () =
  let a = Confirmation.assess (Params.of_c ~n:1e5 ~delta:10. ~nu:0.1 ~c:6.) in
  let t = Confirmation.to_table [ a ] in
  check_int "one row" 1 (Nakamoto_numerics.Table.row_count t)

let props =
  [
    prop "galloping search equals the linear scan"
      Arbitrary.(
        triple
          (float_range ~lo:1e-6 ~hi:0.999)
          (float_range ~lo:(log 1e-9) ~hi:(log 0.5))
          (int_range ~lo:1 ~hi:2000 ()))
      (fun (ratio, log_epsilon, limit) ->
        let epsilon = Float.max Confirmation.min_epsilon (exp log_epsilon) in
        Confirmation.confirmations_for ~limit ~ratio ~epsilon ()
        = linear_confirmations ~limit ~ratio ~epsilon
        && settle_matches_linear_scan ~ratio ~epsilon);
    prop "overtake decreasing in deficit"
      Arbitrary.(pair (float_range ~lo:0.1 ~hi:0.9) (int_range ~lo:0 ~hi:20 ()))
      (fun (ratio, deficit) ->
        let h = 0.1 in
        let a = h *. ratio in
        Confirmation.overtake_probability ~honest_rate:h ~adversary_rate:a
          ~deficit:(deficit + 1)
        <= Confirmation.overtake_probability ~honest_rate:h ~adversary_rate:a
             ~deficit
           +. 1e-12);
    prop ~count:50 "bounded race matches closed form at large cutoff"
      Arbitrary.(pair (float_range ~lo:0.1 ~hi:0.7) (int_range ~lo:0 ~hi:4 ()))
      (fun (ratio, deficit) ->
        let h = 0.1 in
        let a = h *. ratio in
        let closed =
          Confirmation.overtake_probability ~honest_rate:h ~adversary_rate:a
            ~deficit
        in
        let bounded =
          Confirmation.overtake_probability_bounded ~honest_rate:h
            ~adversary_rate:a ~deficit ~give_up_behind:120
        in
        Float.abs (closed -. bounded) < 1e-5);
  ]

let suite =
  [
    case "overtake closed form" test_overtake_closed_form;
    case "bounded race converges" test_bounded_race_converges_to_unbounded;
    case "Nakamoto formula anchors" test_nakamoto_formula;
    case "Nakamoto monotone" test_nakamoto_monotone;
    case "confirmations_for" test_confirmations_for;
    case "settle strata match the linear scan" test_settle_strata;
    case "search probes" test_search_probes;
    case "assess" test_assess;
    case "table rendering" test_table_rendering;
  ]
  @ props
  @ [
      case "Nakamoto risk reference" test_nakamoto_reference;
      prop "the search reads within deepest_read"
        Arbitrary.(
          triple
            (float_range ~lo:1e-6 ~hi:0.999)
            (float_range ~lo:(log 1e-9) ~hi:(log 0.5))
            (int_range ~lo:1 ~hi:2000 ()))
        (fun (ratio, log_epsilon, limit) ->
          let epsilon = Float.max Confirmation.min_epsilon (exp log_epsilon) in
          let reads = Confirmation.search_reads ~limit ~ratio ~epsilon () in
          match Confirmation.confirmations_for ~limit ~ratio ~epsilon () with
          | None -> List.mem limit reads
          | Some z ->
            let deepest =
              Confirmation.deepest_read ~limit ~first:(List.hd reads) z
            in
            List.for_all (fun d -> d >= 1 && d <= deepest) reads);
      case "Cert encloses the risk at the reference points"
        test_cert_encloses_reference;
    ]
